// Privacy: what the untrusted server (or an attacker) actually sees.
//
// A walking tour of the paper's privacy taxonomy (Section 2.3) and security
// analysis (Section 4.3): the example outsources a collection at different
// privacy levels, dumps the server's view of the data at each, and then
// plays the attacker — querying with arbitrary permutations and attempting
// to decrypt stolen candidates without the key.
//
//	go run ./examples/privacy
package main

import (
	"context"
	"fmt"
	"log"

	"simcloud"
	"simcloud/internal/core"
	"simcloud/internal/engine"
	"simcloud/internal/mindex"
	"simcloud/internal/secret"
	"simcloud/internal/server"
)

func main() {
	data := simcloud.ClusteredData(5, 400, 8, 5, simcloud.L2())
	pivots := simcloud.SelectPivots(5, data.Dist, data.Objects, 10)
	key, err := simcloud.GenerateKey(pivots)
	if err != nil {
		log.Fatal(err)
	}
	cfg := simcloud.DefaultConfig(10)
	cfg.BucketCapacity = 50

	fmt.Println("=== Level 1: no encryption (plain deployment) ===")
	plainSrv, err := simcloud.NewPlainServer(cfg, pivots)
	if err != nil {
		log.Fatal(err)
	}
	if err := plainSrv.Start("127.0.0.1:0"); err != nil {
		log.Fatal(err)
	}
	defer plainSrv.Close()
	pc, err := simcloud.DialPlain(plainSrv.Addr())
	if err != nil {
		log.Fatal(err)
	}
	defer pc.Close()
	if _, err := pc.Insert(data.Objects[:100]); err != nil {
		log.Fatal(err)
	}
	fmt.Println("the server stores raw descriptors, pivots, and can compute all distances:")
	e := firstEntry(plainSrv.Index())
	o, err := secret.DecodeObject(e.Payload) // no key needed: the payload is the object
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  entry id=%d perm=%v dists[0..2]=%.1f vec[0..3]=%.2f  <- plaintext!\n",
		e.ID, e.Perm[:3], e.Dists[:3], o.Vec[:4])

	fmt.Println("\n=== Level 3: MS objects encrypted (Encrypted M-Index) ===")
	encSrv, err := server.NewEncrypted(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := encSrv.Start("127.0.0.1:0"); err != nil {
		log.Fatal(err)
	}
	defer encSrv.Close()
	ec, err := simcloud.DialEncrypted(encSrv.Addr(), key, simcloud.ClientOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer ec.Close()
	if _, err := ec.Insert(data.Objects); err != nil {
		log.Fatal(err)
	}
	fmt.Println("the server stores only a permutation prefix and an AES ciphertext:")
	e = firstEntry(encSrv.Index())
	fmt.Printf("  entry id=%d perm=%v dists=%v payload[0..8]=%x...\n",
		e.ID, e.Perm, e.Dists, e.Payload[:8])
	fmt.Println("  (no vectors, no pivot distances, no pivots, no distance function)")

	fmt.Println("\n=== The attacker's options (Section 4.3) ===")

	// 1. Query with an arbitrary permutation: allowed, but the response is
	// a set of ciphertexts with no distances attached, and the attacker
	// cannot know which query object the permutation corresponds to.
	attackerKey, err := secret.Generate(pivots, secret.ModeCTRHMAC) // different cipher key!
	if err != nil {
		log.Fatal(err)
	}
	attacker, err := core.DialEncrypted(encSrv.Addr(), attackerKey, core.Options{MaxLevel: cfg.MaxLevel})
	if err != nil {
		log.Fatal(err)
	}
	defer attacker.Close()
	_, _, err = attacker.Search(context.Background(),
		core.Query{Kind: core.KindApproxKNN, Vec: data.Objects[0].Vec, K: 5, CandSize: 20})
	fmt.Printf("1. querying with a guessed permutation, then decrypting the candidates:\n   -> %v\n", err)

	// 2. Steal a ciphertext from the server and try to open it.
	stolen := firstEntry(encSrv.Index()).Payload
	if _, err := attackerKey.Open(stolen); err != nil {
		fmt.Printf("2. decrypting a stolen ciphertext without the key:\n   -> %v\n", err)
	}

	// 3. Tamper with a stored ciphertext: an authorized client detects it.
	tampered := append([]byte{}, stolen...)
	tampered[len(tampered)/2] ^= 1
	if _, err := key.Open(tampered); err != nil {
		fmt.Printf("3. tampering with a stored ciphertext (detected by the real client):\n   -> %v\n", err)
	}

	// 4. What leaks: the cell structure, i.e. WHICH objects cluster
	// together — but not WHERE they are or HOW similar. This is the gap to
	// privacy level 4 the paper leaves as future work.
	st := encSrv.Index().TreeStats()
	fmt.Printf("4. what does leak: the cell tree shape (%d cells, depth <= %d) —\n", st.Leaves, st.MaxDepth)
	fmt.Println("   encrypted objects sharing cells are likely similar; distances stay hidden.")
}

// firstEntry is one stored entry, as the server holds it.
func firstEntry(idx *engine.ShardedIndex) mindex.Entry {
	entries, err := idx.AllEntries()
	if err != nil || len(entries) == 0 {
		log.Fatal("no entries on server")
	}
	return entries[0]
}
