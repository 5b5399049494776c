package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"

	"siren/internal/wire"
)

// digest hashes a datagram sequence, lengths included.
func (t *traffic) digest() [32]byte {
	h := sha256.New()
	var n [4]byte
	for _, d := range t.dgrams {
		binary.LittleEndian.PutUint32(n[:], uint32(len(d)))
		h.Write(n[:])
		h.Write(d)
	}
	return [32]byte(h.Sum(nil))
}

func queryPoolDigest(pool []query) [32]byte {
	h := sha256.New()
	for _, q := range pool {
		fmt.Fprintf(h, "%d|%d|%v\n", q.kind, q.family, q.digests)
	}
	return [32]byte(h.Sum(nil))
}

// generated is everything the generator derives from a seed, at a size that
// keeps the test under a few seconds.
type generated struct {
	campaign, catalogue [32]byte
	pool                [32]byte
}

func generate(t *testing.T, seed int64) (generated, *traffic, *catalogue) {
	t.Helper()
	capture, _, err := campaignCapture(seed, 0.002)
	if err != nil {
		t.Fatal(err)
	}
	// More than one capture's worth, so the tiled part is covered too.
	tr, err := campaignTraffic(capture, len(capture)+len(capture)/2)
	if err != nil {
		t.Fatal(err)
	}
	cat := newCatalogue(seed, 640)
	pool := newQueryPool(seed, cat, 512, true)
	return generated{campaign: tr.digest(), catalogue: cat.traffic().digest(), pool: queryPoolDigest(pool)}, tr, cat
}

func TestGeneratorIsAFunctionOfTheSeed(t *testing.T) {
	a, _, _ := generate(t, 7)
	b, _, _ := generate(t, 7)
	if a != b {
		t.Fatalf("seed 7 generated two different input sets:\n%x\n%x", a, b)
	}
	c, _, _ := generate(t, 8)
	if a.campaign == c.campaign || a.catalogue == c.catalogue || a.pool == c.pool {
		t.Fatalf("seeds 7 and 8 share an input: %x vs %x", a, c)
	}
}

func TestCatalogueExecutablesHaveDistinctFileH(t *testing.T) {
	seen := make(map[string]int)
	for i, e := range newCatalogue(3, 4096).exes {
		if j, dup := seen[e.digests.File]; dup {
			t.Fatalf("executables %d and %d share FILE_H %s", j, i, e.digests.File)
		}
		seen[e.digests.File] = i
	}
}

func TestGeneratedDatagramsRoundTrip(t *testing.T) {
	_, tr, cat := generate(t, 5)
	for name, dgrams := range map[string][][]byte{"campaign": tr.dgrams, "catalogue": cat.traffic().dgrams} {
		for i, d := range dgrams {
			m, err := wire.Parse(d)
			if err != nil {
				t.Fatalf("%s datagram %d: %v", name, i, err)
			}
			if !bytes.Equal(wire.Encode(m), d) {
				t.Fatalf("%s datagram %d does not survive Parse and Encode", name, i)
			}
		}
	}
	// The ground truth the lag poller relies on must describe the sequence.
	total := 0
	for j, n := range tr.perJob {
		total += n
		if job, _, _ := datagramJob(tr.dgrams[tr.last[j]]); job != tr.jobs[j] {
			t.Fatalf("job %s: last datagram belongs to %s", tr.jobs[j], job)
		}
	}
	if total != len(tr.dgrams) {
		t.Fatalf("per-job counts sum to %d, sequence has %d datagrams", total, len(tr.dgrams))
	}
}

func TestQueryPoolMix(t *testing.T) {
	cat := newCatalogue(1, 640)
	var kinds [numKinds]int
	for _, q := range newQueryPool(1, cat, 2000, true) {
		kinds[q.kind]++
		if (q.kind == kindUnknown) != (q.family == -1) {
			t.Fatalf("%s query drawn from family %d", q.kind, q.family)
		}
	}
	for k, want := range [numKinds]int{800, 800, 400} {
		if got := kinds[k]; got < want*8/10 || got > want*12/10 {
			t.Errorf("%d %s queries of 2000, want about %d", got, queryKind(k), want)
		}
	}
	for _, q := range newQueryPool(1, cat, 200, false) {
		if q.kind == kindUnknown {
			t.Fatal("pool without unknowns holds an unknown query")
		}
	}
}
