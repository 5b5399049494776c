package wire

import (
	"sort"
	"strconv"
	"strings"
)

// Differential oracles: the implementations Reassemble and Encode had before
// the allocation-lean rewrite, kept as the reference the production kernels
// are pinned against (FuzzReassemble, FuzzWireParse, the table tests). One
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

func reassembleOracle(msgs []Message) []Record {
	type group struct {
		header   Header
		maxTotal int
		mismatch bool
		chunks   map[int][]byte
	}
	groups := make(map[string]*group)
	var keys []string
	for _, m := range msgs {
		k := oracleKey(m.Header)
		g, ok := groups[k]
		if !ok {
			g = &group{header: m.Header, maxTotal: m.Total, chunks: make(map[int][]byte)}
			groups[k] = g
			keys = append(keys, k)
		}
		if m.Total != g.maxTotal {
			g.mismatch = true
			if m.Total > g.maxTotal {
				g.maxTotal = m.Total
			}
		}
		g.chunks[m.Seq] = m.Content
	}
	out := make([]Record, 0, len(keys))
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
			content = append(content, g.chunks[s]...)
		}
		out = append(out, Record{Header: g.header, Content: content, Complete: complete})
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
