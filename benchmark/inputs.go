package main

import (
	"math/rand/v2"
	"slices"
	"sync"

	"simcloud/internal/core"
	"simcloud/internal/dataset"
	"simcloud/internal/metric"
	"simcloud/internal/pivot"
	"simcloud/internal/secret"
)

// inputs is everything a run feeds the system, derived from the seed alone:
// the objects in load order, the objects later write operations insert, the
// query pool and the client's secret key.
type inputs struct {
	dist    metric.Distance
	all     []metric.Object // ID = position: the order in which objects enter the index over the whole run
	objs    []metric.Object // all[:n], loaded before the timed phases
	extra   []metric.Object // all[n:], inserted by write operations
	queries []metric.Vector // the same for every seed, in the generator's order
	order   []int           // the order in which the read stream cycles through them
	key     *secret.Key
}

// hit is one answer object reduced to what correctness is judged on.
type hit struct {
	ID   uint64
	Dist float64
}

func seedRNG(seed, stream uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, stream)) }

// collectionSeed generates the collection and picks the pivots; it is not the
// run's seed. How hard a collection is to search (how many candidates pass
// the pivot filter, what recall a candidate budget buys) depends on its
// cluster layout and on the pivots, and the driver compares runs across
// seeds, so both are the same for every seed, and so is the set of query
// objects. The run's seed draws which objects are indexed and which are held
// back for writes, every order (load, queries, writes), and the key.
const collectionSeed = 2012

// generate builds the inputs of one workload. Query objects are never
// indexed.
func generate(s *spec, seed uint64) (*inputs, error) {
	total := s.n + s.extra + s.queries
	var ds *dataset.Dataset
	if s.data == "cophir" {
		ds = dataset.CoPhIR(total) // a fixed synthetic collection: it takes no seed
	} else {
		ds = dataset.Clustered(collectionSeed, total, s.dim, 40, metric.L2{})
	}
	pivots := pivot.SelectRandom(seedRNG(collectionSeed, 0x5049), ds.Dist, ds.Objects, s.pivots)
	held := s.n + s.extra // the generator's last objects are the queries, whatever the seed
	seedRNG(seed, 0x5348).Shuffle(held, func(i, j int) {
		ds.Objects[i], ds.Objects[j] = ds.Objects[j], ds.Objects[i]
	})
	for i := range ds.Objects {
		ds.Objects[i].ID = uint64(i)
	}
	in := &inputs{
		dist:  ds.Dist,
		all:   ds.Objects[:held],
		objs:  ds.Objects[:s.n],
		extra: ds.Objects[s.n:held],
	}
	for _, o := range ds.Objects[held:] {
		in.queries = append(in.queries, o.Vec)
	}
	in.order = seedRNG(seed, 0x5155).Perm(len(in.queries))
	var chaSeed [32]byte
	for i := range chaSeed {
		chaSeed[i] = byte(seed >> (8 * (i % 8)))
	}
	key, err := secret.GenerateFrom(rand.NewChaCha8(chaSeed), pivots, secret.ModeCTRHMAC)
	if err != nil {
		return nil, err
	}
	in.key = key
	return in, nil
}

// nearest returns, for every query vector, its k nearest objects among live
// by brute force, ordered like the system orders answers (distance, then
// ID). It is the oracle every answer is judged against; the work is split
// over two goroutines because it is the harness's own and not timed.
func nearest(dist metric.Distance, live []metric.Object, queries []metric.Vector, k int) [][]hit {
	out := make([][]hit, len(queries))
	var wg sync.WaitGroup
	for w := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for qi := w; qi < len(queries); qi += 2 {
				top := make([]hit, 0, k+1) // kept sorted; k is small
				for _, o := range live {
					h := hit{ID: o.ID, Dist: dist.Dist(queries[qi], o.Vec)}
					if len(top) == k && cmpHit(h, top[k-1]) >= 0 {
						continue
					}
					at, _ := slices.BinarySearchFunc(top, h, cmpHit)
					top = slices.Insert(top, at, h)[:min(k, len(top)+1)]
				}
				out[qi] = top
			}
		}()
	}
	wg.Wait()
	return out
}

func cmpHit(a, b hit) int {
	switch {
	case a.Dist < b.Dist:
		return -1
	case a.Dist > b.Dist:
		return 1
	case a.ID < b.ID:
		return -1
	case a.ID > b.ID:
		return 1
	}
	return 0
}

func hitsOf(rs []core.Result) []hit {
	out := make([]hit, len(rs))
	for i, r := range rs {
		out[i] = hit{ID: r.ID, Dist: r.Dist}
	}
	return out
}

// A readOp is one element of the read stream: the query and, for the exact
// kinds, the answer brute force gives.
type readOp struct {
	q     core.Query
	truth []hit // top-k (approximate and exact k-NN) or everything within Radius (range)
}

// readStream builds the cycled query pool of a workload over the given live
// set. Approximate workloads ask one kind; the exact workload alternates a
// range query, whose radius is the distance of the query's rangeHits-th
// neighbour, and an exact k-NN query.
func readStream(s *spec, in *inputs, live []metric.Object) []readOp {
	// A few neighbours beyond the deepest one asked for, so that objects
	// tied with the range radius are part of the expected answer.
	truth := nearest(in.dist, live, in.queries, max(s.k, s.rangeHits)+4)
	ops := make([]readOp, len(in.queries))
	for i, vec := range in.queries {
		t := truth[i]
		switch {
		case !s.exact:
			ops[i] = readOp{
				q:     core.Query{Kind: core.KindApproxKNN, Vec: vec, K: s.k, CandSize: s.candSize},
				truth: t[:min(s.k, len(t))],
			}
		case i%2 == 0:
			radius := t[min(s.rangeHits, len(t))-1].Dist
			within := 0
			for within < len(t) && t[within].Dist <= radius {
				within++
			}
			ops[i] = readOp{q: core.Query{Kind: core.KindRange, Vec: vec, Radius: radius}, truth: t[:within]}
		default:
			ops[i] = readOp{q: core.Query{Kind: core.KindKNN, Vec: vec, K: s.k}, truth: t[:min(s.k, len(t))]}
		}
	}
	return ops
}

// recall is |answer ∩ truth| / |truth|.
func recall(answer, truth []hit) float64 {
	if len(truth) == 0 {
		return 1
	}
	want := make(map[uint64]bool, len(truth))
	for _, h := range truth {
		want[h.ID] = true
	}
	found := 0
	for _, h := range answer {
		if want[h.ID] {
			found++
		}
	}
	return float64(found) / float64(len(truth))
}
