package wire

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"testing"
)

// FuzzWireParse: Parse must never panic and must round-trip what Encode
// produced, no matter how datagrams are mutated in flight; AppendEncode must
// produce the bytes the old string-built Encode did, after any prefix.
func FuzzWireParse(f *testing.F) {
	f.Add([]byte("SIREN1|JOBID=1|STEPID=0|PID=1|HASH=h|HOST=n|TIME=1|LAYER=SELF|TYPE=T|SEQ=0|TOT=1|CONTENT=x"))
	f.Add([]byte("garbage"))
	f.Add([]byte(""))
	f.Add(Encode(Message{Header: Header{JobID: "9", PID: 3, Layer: LayerScript,
		Type: TypeFileH, Total: 1}, Content: []byte("3:abc:def")}))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Parse(data)
		if err != nil {
			return
		}
		// Anything that parses must re-encode to something that parses to
		// the same message.
		m2, err := Parse(Encode(m))
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if m2.Header != m.Header || !bytes.Equal(m2.Content, m.Content) {
			t.Fatalf("round-trip mismatch: %+v vs %+v", m, m2)
		}
		if got, want := AppendEncode(nil, m), encodeOracle(m); !bytes.Equal(got, want) {
			t.Fatalf("AppendEncode diverged from the old Encode:\n got %q\nwant %q", got, want)
		}
		// Appending after a prefix (the WAL batch and run block shape) leaves
		// the prefix alone and adds exactly the datagram.
		prefix := data[:len(data)/2]
		buf := AppendEncode(append([]byte(nil), prefix...), m)
		if !bytes.Equal(buf[:len(prefix)], prefix) {
			t.Fatal("AppendEncode clobbered the bytes before it")
		}
		m3, err := Parse(buf[len(prefix):])
		if err != nil || m3.Header != m.Header || !bytes.Equal(m3.Content, m.Content) {
			t.Fatalf("Parse(AppendEncode(prefix, m)[len(prefix):]) = %+v, %v; want %+v", m3, err, m)
		}
	})
}

// FuzzDecoder feeds one Decoder a fuzzed sequence of datagrams: each line of
// the input, then for every line that parses its re-encoding, the same row
// with each header value in turn replaced (by the previous row's value, by a
// fresh one, by a constant spelled in new bytes), and byte-mutated copies.
// Every result must equal Parse on that datagram — message and error — and
// Parse must equal parseOracle, the implementation before the Decoder, error
// text included. The slot is pre-filled with the previous row, so a field the
// Decoder failed to write shows as a previous row's value; and every input is
// overwritten after its decode, so a string aliasing the input shows too.
func FuzzDecoder(f *testing.F) {
	f.Add([]byte("SIREN1|JOBID=1|STEPID=0|PID=1|HASH=h|HOST=n|TIME=1|LAYER=SELF|TYPE=T|SEQ=0|TOT=1|CONTENT=x"), uint64(0))
	f.Add([]byte("SIREN1|JOBID=1|STEPID=0|PID=1|HASH=h|HOST=n|TIME=1|LAYER=SELF|TYPE=FILE_H|SEQ=0|TOT=2|CONTENT=x\n"+
		"SIREN1|JOBID=1|STEPID=0|PID=1|HASH=h|HOST=n|TIME=1|LAYER=SELF|TYPE=FILE_H|SEQ=1|TOT=2|CONTENT=y\n"+
		"SIREN1|JOBID=|STEPID=|PID=2|HASH=|HOST=|TIME=1|LAYER=|TYPE=|SEQ=0|TOT=1|CONTENT="), uint64(7))
	f.Add([]byte("garbage\nSIREN1|JOBID=1|STEPID=0|PID=x|HASH=h"), uint64(1<<40))
	f.Add(Encode(Message{Header: sampleHeader(), Content: []byte("3:abc:def")}), uint64(99))
	f.Fuzz(func(t *testing.T, data []byte, mutations uint64) {
		rng := rand.New(rand.NewSource(int64(mutations)))
		var seq [][]byte
		var prev Header
		for _, line := range bytes.Split(data, []byte("\n")) {
			seq = append(seq, line)
			m, err := Parse(line)
			if err != nil {
				continue
			}
			seq = append(seq, Encode(m))
			fresh := [...]string{"", "0", "x" + m.JobID, LayerScript, TypeMapsH, string([]byte(TypeObjects))}
			for _, field := range []*string{&m.JobID, &m.StepID, &m.Hash, &m.Host, &m.Layer, &m.Type} {
				saved := *field
				*field = fresh[rng.Intn(len(fresh))]
				seq = append(seq, Encode(m))
				*field = saved
			}
			swapped := m
			swapped.Header = prev
			swapped.PID, swapped.Time, swapped.Seq, swapped.Total = m.PID, m.Time, m.Seq, m.Total
			seq = append(seq, Encode(swapped))
			prev = m.Header
			enc := Encode(m)
			for n := rng.Intn(4); n > 0; n-- {
				enc[rng.Intn(len(enc))] = byte(rng.Intn(256))
			}
			seq = append(seq, enc)
		}
		var d Decoder
		var last Message
		for i, dg := range seq {
			want, werr := Parse(dg)
			oracle, oerr := parseOracle(dg)
			if (werr == nil) != (oerr == nil) || (werr != nil && werr.Error() != oerr.Error()) {
				t.Fatalf("datagram %d %q: Parse err %v, oracle err %v", i, dg, werr, oerr)
			}
			if !reflect.DeepEqual(want, oracle) {
				t.Fatalf("datagram %d %q: Parse %+v, oracle %+v", i, dg, want, oracle)
			}
			got := last // a field Decode leaves alone keeps this row's value
			err := d.Decode(dg, &got)
			if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
				t.Fatalf("datagram %d %q: Decode err %v, Parse err %v", i, dg, err, werr)
			}
			for j := range dg {
				dg[j] = '|' // a decoded string that aliased the input changes here
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("datagram %d: Decode %+v, Parse %+v", i, got, want)
			}
			if err == nil {
				last = got
			}
		}
	})
}

// TestDecoderAllocations pins the sharing rule's cost: a row that repeats its
// predecessor's header allocates only its content, a changed LAYER or TYPE
// naming a package constant nothing more, and any other change one header
// region more — what Parse allocates for every row.
func TestDecoderAllocations(t *testing.T) {
	h := sampleHeader()
	same := Encode(Message{Header: h, Content: []byte("c")})
	h.Layer, h.Type = LayerScript, TypeFileH
	constants := Encode(Message{Header: h, Content: []byte("c")})
	h.JobID, h.Host = "other", "node9"
	changed := Encode(Message{Header: h, Content: []byte("c")})
	for _, tc := range []struct {
		name string
		a, b []byte // decoded alternately, so each decode follows the other row
		want float64
	}{
		{"repeated", same, same, 1},
		{"constants", same, constants, 1},
		{"changed", same, changed, 2},
	} {
		var d Decoder
		var m Message
		got := testing.AllocsPerRun(100, func() {
			if d.Decode(tc.a, &m) != nil || d.Decode(tc.b, &m) != nil {
				t.Fatal("decode failed")
			}
		}) / 2
		if got != tc.want {
			t.Errorf("%s: %v allocations per decode, want %v", tc.name, got, tc.want)
		}
	}
	if got := testing.AllocsPerRun(100, func() { _, _ = Parse(changed) }); got != 2 {
		t.Errorf("Parse: %v allocations, want 2 (header region, content)", got)
	}
}

// TestDecimalMatchesStrconv: the decoder's inline integer parse must accept,
// reject and word errors exactly as the strconv calls Parse always made.
func TestDecimalMatchesStrconv(t *testing.T) {
	for _, v := range []string{"0", "7", "-0", "+5", "-", "+", "", "007", "1_0", " 1", "1a",
		"123456789012345678", "-12345678901234567", "1234567890123456789", "9223372036854775807",
		"9223372036854775808", "-9223372036854775808", "99999999999999999999", "2147483648", "0x10"} {
		for _, wide := range []bool{false, true} {
			got, gerr := decimal([]byte(v), wide)
			var want int64
			var werr error
			if wide {
				want, werr = strconv.ParseInt(v, 10, 64)
			} else {
				var n int
				n, werr = strconv.Atoi(v)
				want = int64(n)
			}
			if got != want || (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
				t.Errorf("decimal(%q, %v) = %d, %v; strconv gives %d, %v", v, wide, got, gerr, want, werr)
			}
		}
	}
}

// FuzzReassemble feeds Reassemble with parsed datagrams (one per line of the
// fuzz input) plus a chunked-and-reversed version of the raw input, and
// checks the structural invariants: no panic, content bounded by the sum of
// chunk payloads, and Complete records reproducing the chunked content
// exactly. The giant-TOT seed pins the hostile-Total fix — Reassemble must
// walk the chunks that arrived, not the announced range, or this seed alone
// costs two billion iterations. Every result is also compared record for
// record with reassembleOracle — the map-of-maps implementation this kernel
// replaced — on the parsed set, on the parsed set delivered twice in opposite
// orders (every Seq duplicated, so "the later arrival wins" decides the
// content), and on the chunked input.
func FuzzReassemble(f *testing.F) {
	f.Add([]byte("SIREN1|JOBID=1|STEPID=0|PID=1|HASH=h|HOST=n|TIME=1|LAYER=SELF|TYPE=T|SEQ=0|TOT=1|CONTENT=x"), uint8(16))
	f.Add([]byte("SIREN1|JOBID=1|STEPID=0|PID=1|HASH=h|HOST=n|TIME=1|LAYER=SELF|TYPE=T|SEQ=0|TOT=2000000000|CONTENT=x"), uint8(0))
	two := Encode(Message{Header: sampleHeader(), Content: []byte("first")})
	two = append(two, '\n')
	two = append(two, Encode(Message{Header: sampleHeader(), Content: []byte("second")})...)
	f.Add(two, uint8(4))
	f.Add([]byte("not a datagram\nat all"), uint8(255))
	f.Fuzz(func(t *testing.T, data []byte, room uint8) {
		// Arbitrary parsed datagrams, including Total mismatches and gaps.
		var msgs []Message
		var payload int
		for _, line := range bytes.Split(data, []byte("\n")) {
			m, err := Parse(line)
			if err != nil {
				continue
			}
			msgs = append(msgs, m)
			payload += len(m.Content)
		}
		recs := Reassemble(msgs)
		if want := reassembleOracle(msgs); !reflect.DeepEqual(recs, want) {
			t.Fatalf("Reassemble diverged from the oracle:\n got %+v\nwant %+v", recs, want)
		}
		twice := append(append([]Message(nil), msgs...), msgs...)
		slices.Reverse(twice[len(msgs):])
		if got, want := Reassemble(twice), reassembleOracle(twice); !reflect.DeepEqual(got, want) {
			t.Fatalf("Reassemble diverged from the oracle on duplicated chunks:\n got %+v\nwant %+v", got, want)
		}
		for _, r := range recs {
			if len(r.Content) > payload {
				t.Fatalf("record content %d bytes exceeds %d bytes of chunk payload", len(r.Content), payload)
			}
			if r.Complete && r.Header.Total < 1 {
				t.Fatalf("complete record with Total %d", r.Header.Total)
			}
		}

		// Chunk/Reassemble round trip: chunks delivered in reverse order
		// must reassemble to exactly one Complete record with the original
		// content.
		chunks := Chunk(sampleHeader(), data, 64+int(room))
		for i, j := 0, len(chunks)-1; i < j; i, j = i+1, j-1 {
			chunks[i], chunks[j] = chunks[j], chunks[i]
		}
		recs = Reassemble(chunks)
		if want := reassembleOracle(chunks); !reflect.DeepEqual(recs, want) {
			t.Fatalf("Reassemble diverged from the oracle on chunked input: %+v vs %+v", recs[0].Header, want[0].Header)
		}
		if len(recs) != 1 {
			t.Fatalf("chunked input reassembled to %d records", len(recs))
		}
		if !recs[0].Complete {
			t.Fatalf("lossless chunk delivery marked incomplete: %+v", recs[0].Header)
		}
		if !bytes.Equal(recs[0].Content, data) {
			t.Fatalf("chunk round trip lost content: %d bytes in, %d bytes out", len(data), len(recs[0].Content))
		}
	})
}

// TestParseSurvivesRandomMutations complements the fuzz target for plain
// `go test` runs: flip random bytes of valid datagrams and require no panic
// and consistent accept/reject behaviour.
func TestParseSurvivesRandomMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	base := Encode(Message{Header: sampleHeader(), Content: []byte("the payload, with | separators = and\nnewlines")})
	for i := 0; i < 5000; i++ {
		mutated := append([]byte(nil), base...)
		for n := 1 + rng.Intn(4); n > 0; n-- {
			mutated[rng.Intn(len(mutated))] = byte(rng.Intn(256))
		}
		m, err := Parse(mutated)
		if err != nil {
			continue
		}
		// Accepted: must survive a re-encode cycle.
		if _, err := Parse(Encode(m)); err != nil {
			t.Fatalf("accepted datagram failed round trip: %q", mutated)
		}
	}
}

// TestReassembleHostileTotal pins the DoS fix outside the fuzzer: one valid
// datagram announcing two billion chunks must reassemble in the time of one.
func TestReassembleHostileTotal(t *testing.T) {
	h := sampleHeader()
	h.Seq, h.Total = 0, 2_000_000_000
	recs := Reassemble([]Message{{Header: h, Content: []byte("x")}})
	if len(recs) != 1 {
		t.Fatalf("got %d records", len(recs))
	}
	if recs[0].Complete {
		t.Fatal("1 of 2000000000 chunks marked Complete")
	}
	if string(recs[0].Content) != "x" {
		t.Fatalf("partial content %q", recs[0].Content)
	}
	if recs[0].Header.Total != 2_000_000_000 {
		t.Fatalf("Total rewritten to %d", recs[0].Header.Total)
	}
}
