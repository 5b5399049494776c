package receiver

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"testing"
	"time"

	"siren/internal/obs"
	"siren/internal/sirendb"
	"siren/internal/wire"
)

// listenFilled binds a loopback socket and sends it dgs before anyone
// reads, so the kernel holds all of them when reading starts and the first
// receive call sees a full batch. The datagrams are few and small enough
// for a socket buffer capped at the common 208 KiB rmem_max.
func listenFilled(t *testing.T, dgs [][]byte) net.PacketConn {
	t.Helper()
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	_ = conn.(*net.UDPConn).SetReadBuffer(1 << 20)
	out, err := net.Dial("udp", conn.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	for _, d := range dgs {
		if _, err := out.Write(d); err != nil {
			t.Fatal(err)
		}
	}
	return conn
}

// TestBatchReaderByteExact reads datagrams from the empty one to the
// largest IPv4 UDP payload straight off the burst reader and requires each
// byte for byte, in order.
func TestBatchReaderByteExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var dgs [][]byte
	for _, n := range []int{0, 1, 1400, 9000, 65507} {
		d := make([]byte, n)
		rng.Read(d)
		dgs = append(dgs, d)
	}
	conn := listenFilled(t, dgs)
	defer conn.Close()
	br, err := newBatchReader(conn)
	if err != nil {
		t.Fatal(err)
	}
	defer br.close()
	var got [][]byte
	for len(got) < len(dgs) {
		if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		if err := br.read(); err != nil {
			t.Fatalf("read after %d of %d datagrams: %v", len(got), len(dgs), err)
		}
		for _, m := range br.msgs {
			got = append(got, bytes.Clone(m)) // msgs alias the arena until the next read
		}
	}
	if len(got) != len(dgs) {
		t.Fatalf("read %d datagrams, sent %d", len(got), len(dgs))
	}
	for i := range dgs {
		if !bytes.Equal(got[i], dgs[i]) {
			t.Errorf("datagram %d: read %d bytes, sent %d, or the bytes differ", i, len(got[i]), len(dgs[i]))
		}
	}
}

// spreadDatagrams encodes n messages over enough (JobID, Host) keys to
// land on every one of four shards.
func spreadDatagrams(n int) [][]byte {
	dgs := make([][]byte, n)
	for i := range dgs {
		m := mkMsg(i, wire.TypeObjects)
		m.JobID = fmt.Sprintf("job-%d", i%9)
		m.Host = fmt.Sprintf("nid%06d", i%4)
		dgs[i] = wire.Encode(m)
	}
	return dgs
}

// TestBurstsAcrossShardsLoseNothing fills the socket with three batches'
// worth of datagrams spread over four shards before the reader starts:
// every datagram must be stored, the first receive call must have returned
// a full batch, and every shard must have been handed some.
func TestBurstsAcrossShardsLoseNothing(t *testing.T) {
	const n = 3*burstMax + 5
	db, err := sirendb.OpenOptions("", sirendb.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry("test")
	r := New(db, Options{Writers: 4, Metrics: reg})
	if err := r.serve(listenFilled(t, spreadDatagrams(n))); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for db.Count() < n && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	st := r.Stats().Snapshot()
	if db.Count() != n || st.Received != n || st.Dropped != 0 || st.Malformed != 0 {
		t.Fatalf("stored %d of %d (stats %+v)", db.Count(), n, st)
	}
	full := int64(burstMax)
	if runtime.GOOS != "linux" {
		full = 1 // one ReadFrom per call
	}
	if b := reg.Histogram("siren_ingest_recv_batch", "").Snapshot(); b.Max != full || b.Sum != n {
		t.Errorf("recv batch histogram = %+v, want %d datagrams with a full first batch of %d", b, n, full)
	}
	sn := db.Snapshot()
	for i := 0; i < sn.Shards(); i++ {
		if sn.ShardCursor(i).Len() == 0 {
			t.Errorf("store shard %d received nothing", i)
		}
	}
}

// TestCloseDuringBurstStoresKernelHeld closes the receiver right after its
// reader starts on a socket the kernel has already filled: the shutdown
// drain must store every datagram the kernel held.
func TestCloseDuringBurstStoresKernelHeld(t *testing.T) {
	const n = 3*burstMax + 5
	db, err := sirendb.OpenOptions("", sirendb.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	r := New(db, Options{Writers: 2})
	if err := r.serve(listenFilled(t, spreadDatagrams(n))); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if got := db.Count(); got != n {
		t.Fatalf("stored %d of the %d datagrams the kernel held (stats %+v)", got, n, r.Stats().Snapshot())
	}
}
