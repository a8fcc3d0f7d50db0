package core

import (
	"bytes"
	"fmt"
	"testing"

	"simcloud/internal/secret"
)

func TestRawDataRoundTrip(t *testing.T) {
	client, ds, _ := testCloud(t, Options{}, true)
	// Upload raw records for the first 50 objects.
	items := map[uint64][]byte{}
	for i := range 50 {
		items[uint64(i)] = fmt.Appendf(nil, "raw record for object %d: %v", i, ds.Objects[i].Vec[:2])
	}
	costs, err := client.UploadRaw(items)
	if err != nil {
		t.Fatal(err)
	}
	if costs.EncryptTime <= 0 {
		t.Fatal("raw upload reported no encryption time")
	}

	// The complete outsourced flow: similarity search → IDs → raw fetch.
	res, _, err := search(client, Query{Kind: KindApproxKNN, Vec: ds.Objects[7].Vec, K: 5, CandSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	var ids []uint64
	for _, r := range res {
		if r.ID < 50 {
			ids = append(ids, r.ID)
		}
	}
	if len(ids) == 0 {
		t.Skip("no neighbors among the raw-stored objects")
	}
	raw, fcosts, err := client.FetchRaw(ids)
	if err != nil {
		t.Fatal(err)
	}
	if fcosts.DecryptTime <= 0 {
		t.Fatal("raw fetch reported no decryption time")
	}
	for _, id := range ids {
		want := items[id]
		if !bytes.Equal(raw[id], want) {
			t.Fatalf("raw record %d mismatch: %q vs %q", id, raw[id], want)
		}
	}
}

func TestRawDataUnknownID(t *testing.T) {
	client, _, _ := testCloud(t, Options{}, false)
	if _, err := client.UploadRaw(map[uint64][]byte{1: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := client.FetchRaw([]uint64{1, 999}); err == nil {
		t.Fatal("fetch of unknown raw ID succeeded")
	}
}

func TestRawDataServerStoresOnlyCiphertext(t *testing.T) {
	client, _, key := testCloud(t, Options{}, false)
	plaintext := []byte("the sensitive raw record")
	if _, err := client.UploadRaw(map[uint64][]byte{5: plaintext}); err != nil {
		t.Fatal(err)
	}
	// Fetch through a foreign key: the blob arrives but cannot be opened.
	otherKey, err := secret.Generate(key.Pivots(), secret.ModeCTRHMAC)
	if err != nil {
		t.Fatal(err)
	}
	attacker, err := DialEncrypted(client.Addr(), otherKey,
		Options{MaxLevel: testMaxLevel})
	if err != nil {
		t.Fatal(err)
	}
	defer attacker.Close()
	if _, _, err := attacker.FetchRaw([]uint64{5}); err == nil {
		t.Fatal("attacker decrypted raw data without the key")
	}
}
