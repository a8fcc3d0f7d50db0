package gateway

import (
	"math/rand/v2"

	"simcloud/internal/core"
	"simcloud/internal/dataset"
	"simcloud/internal/metric"
	"simcloud/internal/mindex"
	"simcloud/internal/pivot"
	"simcloud/internal/secret"
)

// DemoTenant builds one self-contained tenant: an in-process DirectClient
// over clustered data and pivots seeded per tenant, so different tenants
// hold different collections under different secret keys. It backs simgate's
// demo mode and the gateway tests — anywhere a real tenant backend is wanted
// without external setup.
func DemoTenant(name, apiKey string, seed uint64, n, dim, numPivots, maxLevel int) (Tenant, error) {
	ds := dataset.Clustered(seed, n, dim, 5, metric.L2{})
	rng := rand.New(rand.NewPCG(seed, 2012))
	pivots := pivot.SelectRandom(rng, ds.Dist, ds.Objects, numPivots)
	key, err := secret.Generate(pivots, secret.ModeGCM)
	if err != nil {
		return Tenant{}, err
	}
	cfg := mindex.Config{
		NumPivots:      numPivots,
		MaxLevel:       min(maxLevel, numPivots),
		BucketCapacity: 200,
		Storage:        mindex.StorageMemory,
		Ranking:        mindex.RankFootrule,
	}
	client, err := core.NewDirect(cfg, key, core.Options{})
	if err != nil {
		return Tenant{}, err
	}
	if _, err := client.Insert(ds.Objects); err != nil {
		client.Close()
		return Tenant{}, err
	}
	return Tenant{Name: name, Key: apiKey, Backend: client}, nil
}
