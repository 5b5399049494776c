package wire

import "testing"

// TestPartitionHashGolden pins PartitionHash to fixed values. Its outputs are
// a cross-process protocol, not an implementation detail: membership
// rendezvous scores are seeded by PartitionHash, and senders and receivers
// built from different commits must agree on it — a hash change silently
// reshuffles key ownership and makes every receiver reject everything.
// If this test fails, the wire-compatibility contract broke: bump it
// deliberately alongside a deployment-wide flag day, never casually.
func TestPartitionHashGolden(t *testing.T) {
	cases := []struct {
		job, host string
		hash      uint64
	}{
		{"", "", 0xa258d6ec1fb5d95c},
		{"8103607", "nid001234", 0xe2b8ebb2cdb96f9d},
		{"8103607", "nid005678", 0x79c8000068085599},
		{"9000001", "nid001234", 0x52f1758dc74128ce},
		{"4242", "uan01", 0xecef9dae8cc606b1},
		{"12345678", "nid007777", 0xb94375cc4f1f0ebd},
	}
	for _, c := range cases {
		job, host := []byte(c.job), []byte(c.host)
		if got := PartitionHash(job, host); got != c.hash {
			t.Errorf("PartitionHash(%q, %q) = %#016x, want %#016x", c.job, c.host, got, c.hash)
		}
	}
}
