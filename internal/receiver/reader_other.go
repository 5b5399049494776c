//go:build !linux

package receiver

import "net"

// sysReader is the portable reader's single slot: without recvmmsg each
// call is one ReadFrom, through the same burst path as Linux.
type sysReader struct {
	conn net.PacketConn
	slot []byte
}

func newBatchReader(conn net.PacketConn) (*batchReader, error) {
	return &batchReader{msgs: make([][]byte, 0, 1), sysReader: sysReader{conn: conn, slot: make([]byte, slotSize)}}, nil
}

func (b *batchReader) read() error {
	b.msgs = b.msgs[:0]
	n, _, err := b.conn.ReadFrom(b.slot)
	if err == nil {
		b.msgs = append(b.msgs, b.slot[:n])
	}
	return err
}

func (b *batchReader) close() {}
