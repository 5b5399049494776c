package wire

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func sampleHeader() Header {
	return Header{
		JobID: "8412345", StepID: "0", PID: 41923,
		Hash: "0123456789abcdef0123456789abcdef",
		Host: "nid001234", Time: 1733912345,
		Layer: LayerSelf, Type: TypeObjects, Seq: 0, Total: 1,
	}
}

func TestEncodeParseRoundTrip(t *testing.T) {
	m := Message{Header: sampleHeader(), Content: []byte("/lib64/libc.so.6\n/lib64/libm.so.6\n")}
	got, err := Parse(Encode(m))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, m)
	}
}

func TestContentMayContainSeparators(t *testing.T) {
	m := Message{Header: sampleHeader(), Content: []byte("weird|CONTENT=|JOBID=99|\x1f\x00 bytes")}
	got, err := Parse(Encode(m))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Content, m.Content) {
		t.Errorf("content corrupted: %q", got.Content)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	bad := [][]byte{
		nil,
		[]byte("not siren"),
		[]byte("SIREN1|nope"),
		[]byte("SIREN1|JOBID=1|STEPID=0|PID=x|HASH=h|HOST=n|TIME=1|LAYER=SELF|TYPE=T|SEQ=0|TOT=1|CONTENT="),
		[]byte("SIREN1|JOBID=1|STEPID=0|PID=1|HASH=h|HOST=n|TIME=1|LAYER=SELF|TYPE=T|SEQ=5|TOT=2|CONTENT="), // seq out of range
		[]byte("SIREN1|JOBID=1|STEPID=0|PID=1|HASH=h|HOST=n|TIME=1|LAYER=SELF|TYPE=T|SEQ=0|TOT=0|CONTENT="), // total < 1
	}
	for i, d := range bad {
		if _, err := Parse(d); err == nil {
			t.Errorf("case %d: Parse accepted %q", i, d)
		}
	}
}

func TestPartitionHashAgreesAcrossRepresentations(t *testing.T) {
	// The receiver hashes the raw header values of its Scan; the store
	// hashes the parsed Message fields. Both must pick the same shard for
	// every message, or the writer→store 1:1 routing breaks.
	for i := 0; i < 50; i++ {
		m := Message{Header: sampleHeader()}
		m.JobID = fmt.Sprintf("%d", 4242+i)
		m.Host = fmt.Sprintf("nid%06d", i)
		m.Content = []byte("x")
		d := Encode(m)
		f, err := Scan(d)
		if err != nil {
			t.Fatalf("Scan rejected a valid datagram: %v", err)
		}
		raw := PartitionHash(f.Value(d, FieldJobID), f.Value(d, FieldHost))
		parsed := PartitionHash([]byte(m.JobID), []byte(m.Host))
		if raw != parsed {
			t.Fatalf("hash mismatch for job=%s host=%s: raw %x, parsed %x", m.JobID, m.Host, raw, parsed)
		}
	}
	// The hash actually disperses across shard counts used in practice.
	seen := make(map[uint64]bool)
	for i := 0; i < 64; i++ {
		h := PartitionHash([]byte(fmt.Sprintf("job-%d", i)), []byte("nid001001"))
		seen[h%4] = true
	}
	if len(seen) != 4 {
		t.Errorf("64 jobs landed on only %d of 4 shards", len(seen))
	}
}

func TestChunkRespectsMaxSize(t *testing.T) {
	h := sampleHeader()
	content := bytes.Repeat([]byte("/opt/cray/pe/lib64/libsci_cray.so.6\n"), 200)
	msgs := Chunk(h, content, MaxDatagram)
	if len(msgs) < 2 {
		t.Fatalf("expected multiple chunks, got %d", len(msgs))
	}
	var joined []byte
	for i, m := range msgs {
		d := Encode(m)
		if len(d) > MaxDatagram {
			t.Errorf("chunk %d is %d bytes > %d", i, len(d), MaxDatagram)
		}
		if m.Seq != i || m.Total != len(msgs) {
			t.Errorf("chunk %d has seq=%d total=%d", i, m.Seq, m.Total)
		}
		joined = append(joined, m.Content...)
	}
	if !bytes.Equal(joined, content) {
		t.Error("chunk contents do not concatenate to the original")
	}
}

// TestEncodedLenExact holds EncodedLen to the encoder across the integer
// spellings: zero, signs, and the extremes of each width.
func TestEncodedLenExact(t *testing.T) {
	ints := []int64{0, 1, 9, 10, -1, -9, -10, 999999, math.MaxInt32, math.MinInt32, math.MaxInt64, math.MinInt64}
	for _, v := range ints {
		m := Message{Header: sampleHeader(), Content: []byte("payload")}
		m.Time, m.PID, m.Seq, m.Total = v, int(v), int(v), int(v)
		if got, want := EncodedLen(&m), len(AppendEncode(nil, m)); got != want {
			t.Errorf("value %d: EncodedLen = %d, datagram is %d bytes", v, got, want)
		}
	}
}

// TestChunkPlanMatchesProbe pins ChunkPlan's room to what measuring an
// encoded probe chunk (SEQ and TOT of 999999, no content) gives.
func TestChunkPlanMatchesProbe(t *testing.T) {
	h := sampleHeader()
	for _, maxSize := range []int{0, 40, 200, MaxDatagram, 9000} {
		probe := Message{Header: h}
		probe.Seq, probe.Total = 999999, 999999
		size := maxSize
		if size <= 0 {
			size = MaxDatagram
		}
		want := max(16, size-len(Encode(probe)))
		if _, room := ChunkPlan(h, 5000, maxSize); room != want {
			t.Errorf("maxSize %d: room %d, want %d", maxSize, room, want)
		}
	}
}

// TestEncodeAllocs pins the send path's allocations: Encode makes the
// datagram and nothing else, and a one-chunk record costs Chunk only its
// one-element result.
func TestEncodeAllocs(t *testing.T) {
	h := sampleHeader()
	m := Message{Header: h, Content: []byte("3:abcdefgh:ijkl")}
	if n := testing.AllocsPerRun(100, func() { Encode(m) }); n != 1 {
		t.Errorf("Encode: %v allocations, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { Chunk(h, m.Content, MaxDatagram) }); n > 1 {
		t.Errorf("Chunk of one chunk: %v allocations, want at most 1", n)
	}
}

func TestChunkEmptyContent(t *testing.T) {
	msgs := Chunk(sampleHeader(), nil, MaxDatagram)
	if len(msgs) != 1 || msgs[0].Total != 1 {
		t.Fatalf("empty content must yield one chunk: %+v", msgs)
	}
}

func TestReassembleComplete(t *testing.T) {
	h := sampleHeader()
	content := bytes.Repeat([]byte("x"), 5000)
	msgs := Chunk(h, content, 600)
	// Shuffle delivery order: UDP does not guarantee ordering.
	rng := rand.New(rand.NewSource(3))
	rng.Shuffle(len(msgs), func(i, j int) { msgs[i], msgs[j] = msgs[j], msgs[i] })
	recs := reassembleMessages(msgs)
	if len(recs) != 1 {
		t.Fatalf("got %d records", len(recs))
	}
	if !recs[0].Complete {
		t.Error("record should be complete")
	}
	if !bytes.Equal(recs[0].Content, content) {
		t.Error("content mismatch after reassembly")
	}
}

func TestReassembleWithLoss(t *testing.T) {
	h := sampleHeader()
	content := []byte(strings.Repeat("ABCDEFGH", 1000))
	msgs := Chunk(h, content, 600)
	lost := msgs[2]
	msgs = append(msgs[:2], msgs[3:]...)
	recs := reassembleMessages(msgs)
	if len(recs) != 1 {
		t.Fatalf("got %d records", len(recs))
	}
	if recs[0].Complete {
		t.Error("record must be marked incomplete")
	}
	if len(recs[0].Content) != len(content)-len(lost.Content) {
		t.Errorf("partial content length %d, want %d", len(recs[0].Content), len(content)-len(lost.Content))
	}
}

func TestReassembleReorderedResendWithLargerTotal(t *testing.T) {
	// A record is sent as 2 chunks, then re-sent (content grew) as 3 chunks,
	// and UDP delivers the re-send's chunks interleaved with the originals so
	// the first chunk seen announces Total=2. Sizing the chunk loop from that
	// first-seen Total silently dropped chunk 2 and marked the record
	// Complete with a third of its data missing.
	h := sampleHeader()
	short := Chunk(h, []byte(strings.Repeat("a", 1000)), 600)
	long := Chunk(h, []byte(strings.Repeat("ab", 2000)), 600)
	if len(short) < 2 || len(long) <= len(short) {
		t.Fatalf("chunk counts %d/%d, want >= 2 and growing", len(short), len(long))
	}
	// Interleave so a short-version chunk (small Total) is seen first.
	msgs := []Message{short[0]}
	msgs = append(msgs, long...)
	msgs = append(msgs, short[1:]...)
	recs := reassembleMessages(msgs)
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
	if recs[0].Complete {
		t.Error("mixed-Total group must never be Complete")
	}
	if recs[0].Header.Total != len(long) {
		t.Errorf("record Total = %d, want max announced %d", recs[0].Header.Total, len(long))
	}
	// Chunks with Seq >= the first-seen Total must survive into Content:
	// the last chunk of the long version is only present if the loop ran to
	// max(Total).
	if !bytes.Contains(recs[0].Content, long[len(long)-1].Content) {
		t.Error("chunk with Seq >= first-seen Total was dropped")
	}
}

func TestReassembleFirstChunkCarriesSmallerTotal(t *testing.T) {
	// Same scenario, delivery order flipped: the larger-Total version is seen
	// first, a stale smaller-Total chunk arrives later. All chunks of the
	// current version are present, but the group still mixes two record
	// versions (the stale chunk overwrote Seq 0), so it must not be Complete.
	h := sampleHeader()
	short := Chunk(h, []byte(strings.Repeat("z", 1000)), 600)
	long := Chunk(h, []byte(strings.Repeat("yz", 2000)), 600)
	msgs := append(append([]Message{}, long...), short[0])
	recs := reassembleMessages(msgs)
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
	if recs[0].Complete {
		t.Error("mixed-Total group must never be Complete")
	}
	if recs[0].Header.Total != len(long) {
		t.Errorf("record Total = %d, want %d", recs[0].Header.Total, len(long))
	}
}

func TestReassembleFirstChunkLostReordered(t *testing.T) {
	// First chunk lost and the rest delivered in reverse: the record must be
	// incomplete, with the surviving chunks concatenated in Seq order.
	h := sampleHeader()
	content := []byte(strings.Repeat("0123456789", 500))
	msgs := Chunk(h, content, 600)
	rest := append([]Message{}, msgs[1:]...)
	for i, j := 0, len(rest)-1; i < j; i, j = i+1, j-1 {
		rest[i], rest[j] = rest[j], rest[i]
	}
	recs := reassembleMessages(rest)
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
	if recs[0].Complete {
		t.Error("record with a lost first chunk must be incomplete")
	}
	var want []byte
	for _, m := range msgs[1:] {
		want = append(want, m.Content...)
	}
	if !bytes.Equal(recs[0].Content, want) {
		t.Error("surviving chunks not concatenated in Seq order")
	}
}

func TestReassembleSeparatesTypesAndProcesses(t *testing.T) {
	h1 := sampleHeader()
	h2 := sampleHeader()
	h2.Type = TypeModules
	h3 := sampleHeader()
	h3.PID = 999 // different process, same everything else
	var msgs []Message
	msgs = append(msgs, Chunk(h1, []byte("objects"), 0)...)
	msgs = append(msgs, Chunk(h2, []byte("modules"), 0)...)
	msgs = append(msgs, Chunk(h3, []byte("objects2"), 0)...)
	recs := reassembleMessages(msgs)
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
}

func TestExecPIDReuseDistinguishedByHash(t *testing.T) {
	// Same PID, same second, different executable → different HASH field →
	// distinct records (the paper's exec() disambiguation).
	h1 := sampleHeader()
	h2 := sampleHeader()
	h2.Hash = "ffffffffffffffffffffffffffffffff"
	msgs := append(Chunk(h1, []byte("bash"), 0), Chunk(h2, []byte("a.out"), 0)...)
	recs := reassembleMessages(msgs)
	if len(recs) != 2 {
		t.Fatalf("exec-reused PID collapsed into %d record(s)", len(recs))
	}
	if recs[0].Header.Hash == recs[1].Header.Hash {
		t.Error("records must keep their own executable hash")
	}
}

// TestReassembleSeparatorByteInsideValues: 0x1f is a legal byte inside a
// header value (Parse only excludes '|'), so a key that joins fields with it
// is ambiguous. These two datagrams differ in JOBID and STEPID yet used to
// share the joined key "100\x1f7\x1f0…" and reassemble into one record.
func TestReassembleSeparatorByteInsideValues(t *testing.T) {
	var msgs []Message
	for _, d := range []string{
		"SIREN1|JOBID=100\x1f7|STEPID=0|PID=1|HASH=h|HOST=n|TIME=1|LAYER=SELF|TYPE=FILE_H|SEQ=0|TOT=1|CONTENT=3:aaa:bbb",
		"SIREN1|JOBID=100|STEPID=7\x1f0|PID=1|HASH=h|HOST=n|TIME=1|LAYER=SELF|TYPE=FILE_H|SEQ=0|TOT=1|CONTENT=3:ccc:ddd",
	} {
		m, err := Parse([]byte(d))
		if err != nil {
			t.Fatal(err)
		}
		msgs = append(msgs, m)
	}
	recs := reassembleMessages(msgs)
	if len(recs) != 2 {
		t.Fatalf("two records of different jobs reassembled into %d", len(recs))
	}
	for i, r := range recs {
		if r.Header != msgs[i].Header || !bytes.Equal(r.Content, msgs[i].Content) || !r.Complete {
			t.Errorf("record %d = %+v %q, want its own datagram back", i, r.Header, r.Content)
		}
	}
}

// TestReassembleMatchesOracle runs the kernel and the implementation it
// replaced over traffic shaped to hit every branch: interleaved records,
// duplicated and reordered chunks, Total disagreement, empty contents.
func TestReassembleMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var msgs []Message
	for p := 0; p < 40; p++ {
		h := sampleHeader()
		h.PID = 100 + p%9 // PIDs repeat: later records re-join earlier groups
		h.Time += int64(p % 3)
		h.Type = []string{TypeMetadata, TypeObjects, TypeMaps, "CUSTOM"}[p%4]
		content := bytes.Repeat([]byte{byte('a' + p%26)}, (p*211)%3000)
		chunks := Chunk(h, content, 300)
		if p%5 == 0 {
			chunks = append(chunks, Chunk(h, content[:len(content)/2], 300)...) // stale re-send, smaller Total
		}
		if p%7 == 0 {
			chunks = append(chunks, chunks...) // every chunk twice
		}
		msgs = append(msgs, chunks...)
	}
	check := func(name string, in []Message) {
		t.Helper()
		want := reassembleOracle(in)
		if got := reassembleMessages(in); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Reassemble diverged from the oracle (%d vs %d records)", name, len(got), len(want))
		}
	}
	check("in order", msgs)
	rng.Shuffle(len(msgs), func(i, j int) { msgs[i], msgs[j] = msgs[j], msgs[i] })
	check("shuffled", msgs)
	lossy := msgs[:0:0]
	for _, m := range msgs {
		if rng.Intn(10) > 0 {
			lossy = append(lossy, m)
		}
	}
	check("lossy", lossy)
	check("empty", nil)
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(job, step, host string, pid uint16, tm int64, content []byte) bool {
		h := Header{
			JobID: sanitize(job), StepID: sanitize(step), PID: int(pid),
			Hash: "00ff", Host: sanitize(host), Time: tm,
			Layer: LayerSelf, Type: TypeMetadata, Seq: 0, Total: 1,
		}
		m := Message{Header: h, Content: content}
		got, err := Parse(Encode(m))
		if err != nil {
			return false
		}
		if len(content) == 0 && len(got.Content) == 0 {
			got.Content = content
		}
		return reflect.DeepEqual(got, m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// sanitize strips '|' and '=' which header fields may not contain (they are
// env-derived identifiers; siren.so applies the same restriction).
func sanitize(s string) string {
	s = strings.ReplaceAll(s, "|", "_")
	s = strings.ReplaceAll(s, "=", "_")
	if len(s) > 64 {
		s = s[:64]
	}
	return s
}

func TestChanTransport(t *testing.T) {
	tr := NewChanTransport(4)
	if err := tr.Send([]byte("one")); err != nil {
		t.Fatal(err)
	}
	got := <-tr.C()
	if string(got) != "one" {
		t.Errorf("got %q", got)
	}
	// Overflow drops.
	for i := 0; i < 10; i++ {
		tr.Send([]byte("x"))
	}
	if tr.Dropped != 6 {
		t.Errorf("Dropped = %d, want 6", tr.Dropped)
	}
	tr.Close()
	if err := tr.Send([]byte("after close")); err == nil {
		t.Error("send after close should fail")
	}
}

func TestLossyTransport(t *testing.T) {
	inner := NewChanTransport(100000)
	lossy := NewLossyTransport(inner, 0.1, 42)
	const n = 20000
	for i := 0; i < n; i++ {
		if err := lossy.Send([]byte("d")); err != nil {
			t.Fatal(err)
		}
	}
	rate := float64(lossy.Dropped) / n
	if rate < 0.08 || rate > 0.12 {
		t.Errorf("observed loss rate %.3f, want ~0.10", rate)
	}
	if lossy.Sent+lossy.Dropped != n {
		t.Error("sent+dropped != total")
	}
}

func TestUDPTransportLoopback(t *testing.T) {
	// Round-trip one datagram over a real UDP socket.
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	tr, err := DialUDP(pc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	m := Message{Header: sampleHeader(), Content: []byte("over the wire")}
	if err := tr.Send(Encode(m)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 65536)
	n, _, err := pc.ReadFrom(buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Parse(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Content) != "over the wire" {
		t.Errorf("content = %q", got.Content)
	}
}

func BenchmarkEncodeParse(b *testing.B) {
	m := Message{Header: sampleHeader(), Content: bytes.Repeat([]byte("lib\n"), 100)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(Encode(m)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChunkReassemble64K(b *testing.B) {
	h := sampleHeader()
	content := bytes.Repeat([]byte("y"), 64<<10)
	rows := scanMessages(Chunk(h, content, MaxDatagram))
	b.SetBytes(int64(len(content)))
	b.ReportAllocs()
	var buf []byte
	for i := 0; i < b.N; i++ {
		recs := Reassemble(rows)
		if len(recs) != 1 || !recs[0].Complete {
			b.Fatal("bad reassembly")
		}
		buf = recs[0].AppendContent(buf[:0])
	}
}

// BenchmarkScan: one well-formed datagram through Scan, the check every
// datagram a receiver takes, every WAL row a restart replays and every
// sealed row a read hands out passes.
func BenchmarkScan(b *testing.B) {
	d := Encode(Message{Header: sampleHeader(), Content: []byte("3:abc:def")})
	b.SetBytes(int64(len(d)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Scan(d); err != nil {
			b.Fatal(err)
		}
	}
}
