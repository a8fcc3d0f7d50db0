// Package kmeans is what the second routing family of the similarity cloud
// learns: a k-means clustered partitioning of the metric space (Train,
// Model) and a per-query candidate-size predictor (FitPredictor,
// Predictor). It holds no index. Where the M-Index partitions the space by
// pivot-permutation prefixes, this family partitions it by proximity to K
// Lloyd-iterated centroids — and that partitioning is an M-Index
// configuration: with the centroids as the pivots, MaxLevel 1 and the
// distance-sum ranking (Config.IndexConfig), every level-1 cell of the
// M-Index is one centroid's Voronoi cell, an object routes to its nearest
// centroid (the first element of its permutation), and a query visits cells
// in ascending query–centroid distance. core.NewKMeansDirect serves the
// family through the ordinary DirectClient over that engine; simserver and
// simcoord serve it remotely with the matching flags.
//
// The centroids play exactly the role the M-Index pivots play in the
// encrypted deployment. They are client-side secrets: the client wraps them
// in a pivot.Set inside its secret.Key (Model.PivotSet), and the per-object
// work of Algorithm 1 (distances to the reference points, routing prefix,
// encryption) is performed by the same shared coder the other backends use
// — with a one-element prefix, the cell number. The server stores the same
// Entry records as for any encrypted M-Index: a ciphertext payload, the
// routing prefix and a transformed distance vector. It never sees a
// plaintext vector, a centroid or a raw distance.
//
// predict.go provides the learned candidate-size predictor: a small model
// mapping a query's distance to its nearest centroid to the candidate count
// needed to hit a target recall, fit on a calibration sample (see
// FitPredictor). It replaces the global CandSize constant per query via
// Query.TargetRecall. Both are client-side state: the model persists as
// the key's pivot set, and the predictor is refitted in process.
package kmeans
