package wire

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
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
		if n, want := EncodedLen(&m), len(encodeOracle(m)); n != want {
			t.Fatalf("EncodedLen = %d, datagram is %d bytes", n, want)
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

// FuzzScan holds the write path's header scan to the decoder: for every
// input Scan accepts exactly what Decode and parseOracle (the decoder's
// independent predecessor) accept, with Decode's error, and its integers,
// value spans and content offset read what they decode. Canonical must hold
// exactly when re-encoding the parsed message gives back the input — the
// bytes a store keeps without re-encoding — and then AppendEncodeFields
// must report the scan's own Fields, and CanonicalValues, from the values'
// lengths and the two integers before them, the scan's spans. Whatever
// scan's one-walk path accepts, its checked path reads the same way.
func FuzzScan(f *testing.F) {
	f.Add([]byte("SIREN1|JOBID=-1|STEPID=0|PID=-2147483648|HASH==|HOST=n|TIME=-9223372036854775808|LAYER=L|TYPE=T|SEQ=0|TOT=1|CONTENT=x"))
	f.Add([]byte("SIREN1|JOBID=1|STEPID=0|PID=1|HASH=h|HOST=n|TIME=1|LAYER=SELF|TYPE=T|SEQ=0|TOT=1|CONTENT=x"))
	f.Add([]byte("SIREN1|JOBID=|STEPID=|PID=0|HASH=|HOST=|TIME=0|LAYER=|TYPE=|SEQ=0|TOT=1|CONTENT="))
	f.Add([]byte("SIREN1|JOBID=1|STEPID=0|PID=1|HASH=h|HOST=n|TIME=1|LAYER=SELF|TYPE=T|SEQ=0|TOT=1|CONTENT=a|CONTENT=b"))
	f.Add([]byte("SIREN1|JOBID=1|CONTENT=|STEPID=0|PID=1|HASH=h|HOST=n|TIME=1|LAYER=SELF|TYPE=T|SEQ=0|TOT=1|CONTENT=x"))
	f.Add([]byte("SIREN1|JOBID=1|STEPID=0|PID=1|HASH=h|HOST=n|TIME=1|LAYER=SELF|TYPE=T|SEQ=0|TOT=1|CONTENTS=x"))
	f.Add([]byte("SIREN1|JOBID=1|STEPID=0|PID=1|HASH=h|HOST=n|TIME=1|LAYER=SELF|TYPE=T|SEQ=0|TOT=1"))
	f.Add([]byte("garbage"))
	f.Add(Encode(Message{Header: sampleHeader(), Content: []byte("3:abc:def")}))
	// Every non-canonical spelling in every integer field (TOT=-0 is out of
	// range: a rejected seed).
	for _, field := range []string{"PID", "TIME", "SEQ", "TOT"} {
		for _, v := range []string{"+5", "007", "-0"} {
			vals := map[string]string{"PID": "4242", "TIME": "1733900000", "SEQ": "0", "TOT": "9"}
			vals[field] = v
			f.Add([]byte("SIREN1|JOBID=77|STEPID=0|PID=" + vals["PID"] + "|HASH=abc|HOST=nid1|TIME=" + vals["TIME"] +
				"|LAYER=SELF|TYPE=FILE_H|SEQ=" + vals["SEQ"] + "|TOT=" + vals["TOT"] + "|CONTENT=x"))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fields, serr := Scan(data)
		var fast, checked Fields
		if scanWellFormed(data, &fast) {
			if err := scanChecked(data, &checked); err != nil || checked != fast {
				t.Fatalf("%q: the one-walk scan read %+v, the checked scan %+v, %v", data, fast, checked, err)
			}
		}
		var d Decoder
		var m Message
		derr := d.Decode(data, &m)
		oracle, oerr := parseOracle(data)
		if (serr == nil) != (derr == nil) || (serr != nil && serr.Error() != derr.Error()) {
			t.Fatalf("%q: Scan err %v, Decode err %v", data, serr, derr)
		}
		if (serr == nil) != (oerr == nil) {
			t.Fatalf("%q: Scan err %v, oracle err %v", data, serr, oerr)
		}
		if serr != nil {
			return
		}
		if fields.PID != m.PID || fields.Time != m.Time || fields.Seq != m.Seq || fields.Total != m.Total {
			t.Fatalf("%q: Scan integers %+v, Decode %+v", data, fields, m.Header)
		}
		for k, want := range []string{oracle.JobID, oracle.StepID, oracle.Hash, oracle.Host, oracle.Layer, oracle.Type} {
			if got := string(fields.Value(data, k)); got != want {
				t.Fatalf("%q: Scan value %d = %q, oracle %q", data, k, got, want)
			}
		}
		if !bytes.Equal(data[fields.Content:], oracle.Content) {
			t.Fatalf("%q: Scan content %q, oracle %q", data, data[fields.Content:], oracle.Content)
		}
		reenc, encFields := AppendEncodeFields(nil, &m)
		if canonical := bytes.Equal(reenc, data); fields.Canonical != canonical {
			t.Fatalf("%q: Canonical = %v, re-encoding is %q", data, fields.Canonical, reenc)
		}
		if fields.Canonical && encFields != fields {
			t.Fatalf("%q: AppendEncodeFields reports %+v, Scan %+v", data, encFields, fields)
		}
		if rescan, err := Scan(reenc); err != nil || !rescan.Canonical || rescan != encFields {
			t.Fatalf("re-encoding %q scans as %+v, %v; AppendEncodeFields reported %+v", reenc, rescan, err, encFields)
		}
		// A store hands a canonical row out with the values' places worked
		// out from their lengths: they must be where a scan finds them.
		lens := [StringFields]int{len(m.JobID), len(m.StepID), len(m.Hash), len(m.Host), len(m.Layer), len(m.Type)}
		if got := CanonicalValues(&lens, m.PID, m.Time); got != encFields.Values {
			t.Fatalf("%q: CanonicalValues = %v, the re-encoding scans as %v", data, got, encFields.Values)
		}
	})
}

// TestScanAllocations: the write path's scan allocates nothing for a
// well-formed datagram.
func TestScanAllocations(t *testing.T) {
	d := Encode(Message{Header: sampleHeader(), Content: []byte("3:abc:def")})
	if got := testing.AllocsPerRun(100, func() {
		if _, err := Scan(d); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("Scan: %v allocations, want 0", got)
	}
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
// fuzz input), re-encoded as the canonical rows a store holds, plus a
// chunked-and-reversed version of the raw input, and
// checks the structural invariants: no panic, content bounded by the sum of
// chunk payloads, and Complete records reproducing the chunked content
// exactly. The giant-TOT seed pins the hostile-Total fix — Reassemble must
// walk the chunks that arrived, not the announced range, or this seed alone
// costs two billion iterations. Every result is also compared record for
// record with reassembleOracle — the map-of-maps implementation this kernel
// replaced — on the parsed set, on the parsed set delivered twice in opposite
// orders (every Seq duplicated, which must change nothing: the greatest copy
// of a Seq is kept whatever the order, and an exact copy is no conflict), and
// on the chunked input. The oracle groups by header fields,
// Reassemble by the bytes before SEQ; the last seeds pin that the two agree
// on rows that differ only in SEQ/TOT, only in TIME, or in one header byte,
// and on values holding '=' (which a prefix key must not read as a field
// boundary).
func FuzzReassemble(f *testing.F) {
	const row = "SIREN1|JOBID=1|STEPID=0|PID=1|HASH=h|HOST=n|TIME=1|LAYER=SELF|TYPE=T|"
	f.Add([]byte(row+"SEQ=0|TOT=2|CONTENT=a\n"+row+"SEQ=1|TOT=2|CONTENT=b\n"+row+"SEQ=0|TOT=3|CONTENT=c"), uint8(8))
	f.Add([]byte(row+"SEQ=0|TOT=1|CONTENT=a\n"+strings.Replace(row, "TIME=1|", "TIME=10|", 1)+"SEQ=0|TOT=1|CONTENT=b"), uint8(8))
	// Repeated rows: exact repeats of a chunk change nothing; a second
	// version of a Seq counts one conflict, and the greater version is kept.
	f.Add([]byte(row+"SEQ=0|TOT=2|CONTENT=a\n"+row+"SEQ=1|TOT=2|CONTENT=b\n"+row+"SEQ=0|TOT=2|CONTENT=a\n"+
		row+"SEQ=1|TOT=2|CONTENT=b\n"+row+"SEQ=1|TOT=2|CONTENT=z"), uint8(8))
	f.Add([]byte(row+"SEQ=0|TOT=1|CONTENT=a\n"+strings.Replace(row, "HOST=n", "HOST=m", 1)+"SEQ=0|TOT=1|CONTENT=b\n"+
		strings.Replace(row, "PID=1|", "PID=2|", 1)+"SEQ=0|TOT=1|CONTENT=c"), uint8(8))
	f.Add([]byte("SIREN1|JOBID=1=|STEPID=0|PID=1|HASH=h|HOST=n=1|TIME=1|LAYER=SELF|TYPE=T=|SEQ=0|TOT=1|CONTENT=a\n"+
		"SIREN1|JOBID=1|STEPID==0|PID=1|HASH=h|HOST=n|TIME=1|LAYER=SELF|TYPE==T|SEQ=0|TOT=1|CONTENT=b"), uint8(8))
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
		recs := reassembleMessages(msgs)
		if want := reassembleOracle(msgs); !reflect.DeepEqual(recs, want) {
			t.Fatalf("Reassemble diverged from the oracle:\n got %+v\nwant %+v", recs, want)
		}
		twice := append(append([]Message(nil), msgs...), msgs...)
		slices.Reverse(twice[len(msgs):])
		if got := reassembleMessages(twice); !reflect.DeepEqual(got, recs) {
			t.Fatalf("duplicated chunks changed the records:\n got %+v\nwant %+v", got, recs)
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
		recs = reassembleMessages(chunks)
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
	recs := reassembleMessages([]Message{{Header: h, Content: []byte("x")}})
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
