// Multiuser: the data owner outsources once, many authorized clients search
// — and tenants retire their data independently.
//
// The deployment story of the paper's Figure 1 with the key-distribution
// step made explicit: the owner builds the encrypted index and serializes
// the secret key (pivots + cipher key); authorized analysts receive the key
// blob out of band, reconstruct it, and query concurrently over their own
// connections. The server never sees the key and cannot distinguish owner
// from analyst — or from an attacker replaying permutations.
//
// The index is mutable: the second act splits the collection between two
// tenants and has tenant A delete its share. Tenant B's recall is
// untouched — its 10-NN answers before and after A's deletion are
// identical — while A's objects stop being retrievable, demonstrating
// that deletion is scoped precisely to the deleted entries.
//
//	go run ./examples/multiuser
package main

import (
	"context"
	"fmt"
	"log"
	"sort"
	"sync"

	"simcloud"
)

func main() {
	// --- The data owner's machine -------------------------------------
	data := simcloud.Human() // 4,026 gene-expression profiles, L1
	cfg := simcloud.DefaultConfig(50)
	cfg.BucketCapacity = 250 // the paper's HUMAN parameters
	pivots := simcloud.SelectPivots(2012, data.Dist, data.Objects, 50)
	key, err := simcloud.GenerateKey(pivots)
	if err != nil {
		log.Fatal(err)
	}

	srv, err := simcloud.NewEncryptedServer(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	owner, err := simcloud.DialEncrypted(srv.Addr(), key, simcloud.ClientOptions{Workers: 4})
	if err != nil {
		log.Fatal(err)
	}
	defer owner.Close()
	costs, err := owner.Insert(data.Objects)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("owner: outsourced %d encrypted profiles in %v\n", data.Size(), costs.Overall)

	// The key blob is what the owner hands to authorized analysts — via a
	// channel of their choosing, never through the similarity cloud.
	keyBlob, err := simcloud.MarshalKey(key)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("owner: distributing %d-byte key blob to 4 analysts\n", len(keyBlob))

	// --- Four analysts' machines, concurrently ------------------------
	// Each analyst reconstructs the key and queries through the unified
	// Search API. (Clients are also safe to share: the connection-lease
	// pool gives every concurrent operation its own connection.)
	ctx := context.Background()
	var wg sync.WaitGroup
	results := make([]string, 4)
	for analyst := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k, err := simcloud.UnmarshalKey(keyBlob)
			if err != nil {
				log.Fatal(err)
			}
			c, err := simcloud.DialEncrypted(srv.Addr(), k, simcloud.ClientOptions{})
			if err != nil {
				log.Fatal(err)
			}
			defer c.Close()
			gene := data.Objects[100*(analyst+1)]
			res, costs, err := c.Search(ctx, simcloud.Query{
				Kind: simcloud.KindApproxKNN, Vec: gene.Vec, K: 10, CandSize: 400,
			})
			if err != nil {
				log.Fatal(err)
			}
			results[analyst] = fmt.Sprintf(
				"analyst %d: 10-NN of gene %-4d -> nearest %d (d=%.1f), %v overall, %.1f kB",
				analyst, gene.ID, res[1].ID, res[1].Dist, costs.Overall, float64(costs.CommBytes())/1000)
		}()
	}
	wg.Wait()
	for _, r := range results {
		fmt.Println(r)
	}

	// --- Tenant deletion ----------------------------------------------
	// The collection is split between two tenants: A owns the first half
	// of the profiles, B the rest. Tenant A retires its data; tenant B's
	// recall — measured against B's own ground truth — must not suffer.
	half := data.Size() / 2
	tenantA, tenantB := data.Objects[:half], data.Objects[half:]
	ownedByA := func(id uint64) bool { return id < tenantB[0].ID }

	probe := tenantB[len(tenantB)/2]
	exact := bruteForceKNN(data, tenantB, probe.Vec, 10) // B's own 10 nearest
	recallB := func() float64 {
		res, _, err := owner.Search(ctx, simcloud.Query{
			Kind: simcloud.KindApproxKNN, Vec: probe.Vec, K: 10, CandSize: 400,
		})
		if err != nil {
			log.Fatal(err)
		}
		got := make([]uint64, 0, len(res))
		for _, r := range res {
			got = append(got, r.ID)
		}
		return simcloud.Recall(got, exact)
	}
	before := recallB()

	deleted, _, err := owner.Delete(tenantA)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntenant A: deleted its %d profiles (server acked %d)\n", len(tenantA), deleted)

	after := recallB()
	fmt.Printf("tenant B: recall of its own 10-NN %.0f%% before A's deletion, %.0f%% after\n", before, after)
	if after < before {
		log.Fatalf("tenant B's recall dropped from %.0f%% to %.0f%%", before, after)
	}

	// And none of A's profiles remain retrievable, from any query angle.
	for _, q := range []simcloud.Vector{tenantA[0].Vec, tenantA[len(tenantA)/2].Vec, probe.Vec} {
		res, _, err := owner.Search(ctx, simcloud.Query{
			Kind: simcloud.KindApproxKNN, Vec: q, K: 10, CandSize: 400,
		})
		if err != nil {
			log.Fatal(err)
		}
		for _, r := range res {
			if ownedByA(r.ID) {
				log.Fatalf("deleted tenant-A profile %d is still retrievable", r.ID)
			}
		}
	}
	fmt.Println("tenant A: none of its profiles are retrievable anymore.")

	fmt.Println("\nthe server saw only permutations and ciphertexts throughout.")
}

// bruteForceKNN computes the exact k-NN of q within a tenant's own slice
// of the collection — the ground truth a tenant measures its recall
// against.
func bruteForceKNN(ds *simcloud.Dataset, own []simcloud.Object, q simcloud.Vector, k int) []uint64 {
	type pair struct {
		id uint64
		d  float64
	}
	ps := make([]pair, len(own))
	for i, o := range own {
		ps[i] = pair{o.ID, ds.Dist.Dist(q, o.Vec)}
	}
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].d != ps[j].d {
			return ps[i].d < ps[j].d
		}
		return ps[i].id < ps[j].id
	})
	out := make([]uint64, 0, k)
	for _, p := range ps[:min(k, len(ps))] {
		out = append(out, p.id)
	}
	return out
}
