package campaign

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sync"
	"testing"
)

// retainTransport keeps every datagram it is sent, in order, as the
// benchmark's capture does.
type retainTransport struct {
	mu     sync.Mutex
	dgrams [][]byte
}

func (t *retainTransport) Send(d []byte) error {
	t.mu.Lock()
	t.dgrams = append(t.dgrams, d)
	t.mu.Unlock()
	return nil
}

func (t *retainTransport) Close() error { return nil }

// TestCampaignCaptureBytesPinned pins every byte the collector sends over
// the benchmark's fixture campaign (seed 1, scale 0.02, one worker, so the
// order is reproducible): the datagram count, their total size and a
// SHA-256 over each datagram prefixed by its length. Every fuzzy hash,
// metadata line and chunk boundary of 36 910 simulated process starts is in
// it, so a change to the hashing kernel or the send path that alters one
// byte fails here.
func TestCampaignCaptureBytesPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the scale-0.02 campaign")
	}
	tr := &retainTransport{}
	res, err := Run(Config{Scale: 0.02, Seed: 1, Workers: 1, Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var total int64
	var lenBuf [binary.MaxVarintLen64]byte
	for _, d := range tr.dgrams {
		h.Write(lenBuf[:binary.PutUvarint(lenBuf[:], uint64(len(d)))])
		h.Write(d)
		total += int64(len(d))
	}
	const (
		wantProcs  = 36910
		wantDgrams = 113652
		wantBytes  = 28217709
		wantSHA    = "d03d1bb6f1d01317ad12c6a422fed469164d2e94ad4078e13a794bbb8d3be976"
	)
	if res.ProcessesRun != wantProcs {
		t.Errorf("processes = %d, want %d", res.ProcessesRun, wantProcs)
	}
	if len(tr.dgrams) != wantDgrams || total != wantBytes {
		t.Errorf("capture = %d datagrams, %d bytes; want %d, %d", len(tr.dgrams), total, wantDgrams, wantBytes)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != wantSHA {
		t.Errorf("capture SHA-256 = %s, want %s", got, wantSHA)
	}
}
