package wire

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Differential oracles: the implementations Reassemble and Encode had before
// the allocation-lean rewrite (Reassemble over Messages, keyed by fields
// rather than by canonical bytes), and Parse before the Decoder, kept as the
// reference the production kernels are pinned against (FuzzReassemble,
// FuzzWireParse, FuzzDecoder, the table tests). One
// deliberate difference: the grouping key length-prefixes every field. The
// old key joined them with 0x1f, a byte the header grammar admits inside a
// value, so two different records could share a key — the bug the struct key
// fixed; the oracle must not reproduce it.

func oracleKey(h Header) string {
	var sb strings.Builder
	for _, f := range []string{h.JobID, h.StepID, strconv.Itoa(h.PID), h.Hash, h.Host,
		strconv.FormatInt(h.Time, 10), h.Layer, h.Type} {
		sb.WriteString(strconv.Itoa(len(f)))
		sb.WriteByte(':')
		sb.WriteString(f)
	}
	return sb.String()
}

// msgRecord is a reassembled record in Message form: what the oracle
// returns, and what reassembleMessages makes of Reassemble's records.
type msgRecord struct {
	Header    Header
	Content   []byte
	Complete  bool
	Chunks    int // distinct Seqs
	Conflicts int // repeats of a Seq whose TOT or content differs from the chunk it replaced
}

// scanMessages encodes msgs as the canonical rows a store holds.
func scanMessages(msgs []Message) []Scanned {
	var buf []byte
	fields := make([]Fields, len(msgs))
	ends := make([]int, len(msgs))
	for i := range msgs {
		buf, fields[i] = AppendEncodeFields(buf, &msgs[i])
		ends[i] = len(buf)
	}
	rows := make([]Scanned, len(msgs))
	lo := 0
	for i := range rows {
		rows[i] = Scanned{Datagram: buf[lo:ends[i]:ends[i]], Fields: fields[i]}
		lo = ends[i]
	}
	return rows
}

// reassembleMessages runs Reassemble over msgs as canonical rows and
// returns its records in Message form: the first chunk's header with Total
// raised, the joined content (nil when empty), Complete.
func reassembleMessages(msgs []Message) []msgRecord {
	recs := Reassemble(scanMessages(msgs))
	out := make([]msgRecord, len(recs))
	var d Decoder
	for i := range recs {
		var m Message
		d.Fill(recs[i].Row, &m)
		m.Total = recs[i].Total
		out[i] = msgRecord{Header: m.Header, Content: recs[i].AppendContent(nil), Complete: recs[i].Complete,
			Chunks: recs[i].Chunks(), Conflicts: recs[i].Conflicts()}
	}
	return out
}

func reassembleOracle(msgs []Message) []msgRecord {
	type group struct {
		header    Header
		maxTotal  int
		mismatch  bool
		conflicts int
		chunks    map[int]Message
	}
	groups := make(map[string]*group)
	var keys []string
	for _, m := range msgs {
		k := oracleKey(m.Header)
		g, ok := groups[k]
		if !ok {
			g = &group{header: m.Header, maxTotal: m.Total, chunks: make(map[int]Message)}
			groups[k] = g
			keys = append(keys, k)
		}
		if m.Total != g.maxTotal {
			g.mismatch = true
			if m.Total > g.maxTotal {
				g.maxTotal = m.Total
			}
		}
		if prev, ok := g.chunks[m.Seq]; ok && (prev.Total != m.Total || !bytes.Equal(prev.Content, m.Content)) {
			g.conflicts++
		}
		g.chunks[m.Seq] = m
	}
	out := make([]msgRecord, 0, len(keys))
	for _, k := range keys {
		g := groups[k]
		g.header.Total = g.maxTotal
		seqs := make([]int, 0, len(g.chunks))
		for s := range g.chunks {
			seqs = append(seqs, s)
		}
		sort.Ints(seqs)
		complete := !g.mismatch && len(seqs) == g.maxTotal &&
			seqs[0] == 0 && seqs[len(seqs)-1] == g.maxTotal-1
		var content []byte
		for _, s := range seqs {
			content = append(content, g.chunks[s].Content...)
		}
		out = append(out, msgRecord{Header: g.header, Content: content, Complete: complete,
			Chunks: len(seqs), Conflicts: g.conflicts})
	}
	return out
}

func encodeOracle(m Message) []byte {
	var sb strings.Builder
	sb.Grow(128 + len(m.Content))
	sb.WriteString(magic)
	sb.WriteString("|JOBID=")
	sb.WriteString(m.JobID)
	sb.WriteString("|STEPID=")
	sb.WriteString(m.StepID)
	sb.WriteString("|PID=")
	sb.WriteString(strconv.Itoa(m.PID))
	sb.WriteString("|HASH=")
	sb.WriteString(m.Hash)
	sb.WriteString("|HOST=")
	sb.WriteString(m.Host)
	sb.WriteString("|TIME=")
	sb.WriteString(strconv.FormatInt(m.Time, 10))
	sb.WriteString("|LAYER=")
	sb.WriteString(m.Layer)
	sb.WriteString("|TYPE=")
	sb.WriteString(m.Type)
	sb.WriteString("|SEQ=")
	sb.WriteString(strconv.Itoa(m.Seq))
	sb.WriteString("|TOT=")
	sb.WriteString(strconv.Itoa(m.Total))
	sb.WriteString("|CONTENT=")
	sb.WriteString(string(m.Content))
	return []byte(sb.String())
}

func parseOracle(datagram []byte) (Message, error) {
	const contentMark = "|CONTENT="
	ci := bytes.Index(datagram, []byte(contentMark))
	if ci < 0 {
		if len(datagram) < len(magic)+1 || string(datagram[:len(magic)+1]) != magic+"|" {
			return Message{}, fmt.Errorf("%w: bad magic", ErrMalformed)
		}
		return Message{}, fmt.Errorf("%w: missing CONTENT", ErrMalformed)
	}
	s := string(datagram[:ci])
	if !strings.HasPrefix(s, magic+"|") {
		return Message{}, fmt.Errorf("%w: bad magic", ErrMalformed)
	}
	s = s[len(magic)+1:]
	var m Message
	for i, prefix := range fieldPrefixes {
		name := prefix[:len(prefix)-1]
		if !strings.HasPrefix(s, prefix) {
			return Message{}, fmt.Errorf("%w: expected field %s", ErrMalformed, name)
		}
		s = s[len(prefix):]
		var val string
		if sep := strings.IndexByte(s, '|'); sep >= 0 {
			val, s = s[:sep], s[sep+1:]
		} else if i == len(fieldPrefixes)-1 {
			val, s = s, ""
		} else {
			return Message{}, fmt.Errorf("%w: unterminated field %s", ErrMalformed, name)
		}
		var err error
		switch i {
		case 0:
			m.JobID = val
		case 1:
			m.StepID = val
		case 2:
			m.PID, err = strconv.Atoi(val)
		case 3:
			m.Hash = val
		case 4:
			m.Host = val
		case 5:
			m.Time, err = strconv.ParseInt(val, 10, 64)
		case 6:
			m.Layer = val
		case 7:
			m.Type = val
		case 8:
			m.Seq, err = strconv.Atoi(val)
		case 9:
			m.Total, err = strconv.Atoi(val)
		}
		if err != nil {
			return Message{}, fmt.Errorf("%w: field %s: %v", ErrMalformed, name, err)
		}
	}
	if s != "" {
		return Message{}, fmt.Errorf("%w: trailing header bytes", ErrMalformed)
	}
	m.Content = append([]byte{}, datagram[ci+len(contentMark):]...)
	if m.Total < 1 || m.Seq < 0 || m.Seq >= m.Total {
		return Message{}, fmt.Errorf("%w: chunk %d/%d out of range", ErrMalformed, m.Seq, m.Total)
	}
	return m, nil
}
