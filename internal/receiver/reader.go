package receiver

const (
	// slotSize holds one datagram of any size UDP can carry (65 507 bytes
	// over IPv4, 65 527 over IPv6).
	slotSize = 64 << 10
	// burstMax is the most datagrams one receive call returns, and so the
	// most one shard is handed at once.
	burstMax = 64
)

// batchReader reads one socket a burst at a time into an arena of slotSize
// slots it owns. On Linux one recvmmsg call fills up to burstMax slots and
// the arena is mapped outside the Go heap; elsewhere each call is one
// ReadFrom into a single slot. After read, msgs holds the datagrams the
// call returned, each aliasing its slot: valid until the next read.
type batchReader struct {
	msgs [][]byte
	sysReader
}
