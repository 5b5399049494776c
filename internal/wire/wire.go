// Package wire defines SIREN's UDP message format: a textual header carrying
// the process identity (the columns of the receiver's database) followed by
// a free-form content payload, with chunking for payloads that exceed a
// datagram.
//
// Per the paper (§3.1 "UDP Message Sender"), each collected data category
// travels as its own message; long categories (module lists, shared-object
// lists) are split into chunks sent separately, and the header fields —
// JOBID, STEPID, PID, HASH, HOST, TIME, LAYER, TYPE — let the receiver's
// post-processing reassemble chunks and distinguish processes, including
// exec()-reused PIDs, via the executable-path hash.
//
// A header value may contain any byte except the field separator '|'. Code
// that has to tell two headers apart therefore compares fields (Header is
// comparable; Reassemble's recordKey), and never a string made by joining
// them around some other "unused" byte: there is none.
//
// AppendEncode is the one encoder — senders, the store's WAL batches and its
// run blocks all append through it into a buffer they own — and Parse its
// inverse; both sit on the receiver's per-datagram path and Reassemble on
// the per-row path of every consolidation, so all three are written to
// allocate as little as the data allows.
package wire

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"siren/internal/xxhash"
)

// Message types: the data categories siren.so collects.
const (
	TypeMetadata   = "METADATA"    // process ids + executable file metadata
	TypeObjects    = "OBJECTS"     // loaded shared objects, one path per line
	TypeModules    = "MODULES"     // loaded modules, one per line
	TypeCompilers  = "COMPILERS"   // .comment compiler records, one per line
	TypeMaps       = "MAPS"        // /proc/self/maps text
	TypeFileH      = "FILE_H"      // fuzzy hash of the raw executable (or script)
	TypeStringsH   = "STRINGS_H"   // fuzzy hash of printable strings
	TypeSymbolsH   = "SYMBOLS_H"   // fuzzy hash of global symbol names
	TypeObjectsH   = "OBJECTS_H"   // fuzzy hash of the shared-object list
	TypeModulesH   = "MODULES_H"   // fuzzy hash of the module list
	TypeCompilersH = "COMPILERS_H" // fuzzy hash of the compiler list
	TypeMapsH      = "MAPS_H"      // fuzzy hash of the memory map
)

// Layers distinguish the hooked process itself from a Python input script
// whose data is collected by the interpreter's hook.
const (
	LayerSelf   = "SELF"
	LayerScript = "SCRIPT"
)

// MaxDatagram is the default maximum datagram size the chunker targets;
// conservative for typical MTUs so no IP fragmentation occurs.
const MaxDatagram = 1400

const magic = "SIREN1"

// Header identifies the process and data category a message belongs to.
// All fields map 1:1 onto database columns.
type Header struct {
	JobID  string // SLURM_JOB_ID value ("" outside Slurm)
	StepID string // SLURM_STEP_ID value
	PID    int
	Hash   string // 128-bit hash of the executable path, 32 hex chars
	Host   string
	Time   int64  // collection unix time, one-second granularity
	Layer  string // LayerSelf or LayerScript
	Type   string // one of the Type* constants
	Seq    int    // chunk index, 0-based
	Total  int    // chunk count (>= 1)
}

// Message is one datagram: header plus content chunk.
type Message struct {
	Header
	Content []byte
}

// AppendEncode appends m rendered as a datagram to dst and returns the
// extended buffer. The content is last and raw, so it may contain any bytes
// including the field separator. This is the one encoder: the store's WAL
// batches and run blocks append every row into a buffer they own, so a stored
// row costs one encode per tier and no intermediate copy.
func AppendEncode(dst []byte, m Message) []byte {
	dst = append(dst, magic+"|JOBID="...)
	dst = append(dst, m.JobID...)
	dst = append(dst, "|STEPID="...)
	dst = append(dst, m.StepID...)
	dst = append(dst, "|PID="...)
	dst = strconv.AppendInt(dst, int64(m.PID), 10)
	dst = append(dst, "|HASH="...)
	dst = append(dst, m.Hash...)
	dst = append(dst, "|HOST="...)
	dst = append(dst, m.Host...)
	dst = append(dst, "|TIME="...)
	dst = strconv.AppendInt(dst, m.Time, 10)
	dst = append(dst, "|LAYER="...)
	dst = append(dst, m.Layer...)
	dst = append(dst, "|TYPE="...)
	dst = append(dst, m.Type...)
	dst = append(dst, "|SEQ="...)
	dst = strconv.AppendInt(dst, int64(m.Seq), 10)
	dst = append(dst, "|TOT="...)
	dst = strconv.AppendInt(dst, int64(m.Total), 10)
	dst = append(dst, "|CONTENT="...)
	return append(dst, m.Content...)
}

// Encode renders the message as a fresh datagram.
func Encode(m Message) []byte {
	return AppendEncode(make([]byte, 0, 128+len(m.Content)), m)
}

// ErrMalformed is returned by Parse for datagrams that do not follow the
// SIREN wire format. The receiver drops such datagrams (graceful failure).
var ErrMalformed = errors.New("wire: malformed datagram")

// PartitionFields extracts the raw JOBID and HOST header values from an
// encoded datagram in one bounded scan, without parsing or allocating: the
// returned slices alias the datagram. The receiver's shard dispatcher uses
// this to hash-partition datagrams by (JobID, Host) before the full Parse
// happens on a writer shard.
//
// The scan walks the fixed field order exactly like Parse and stops at HOST,
// so it never touches the content bytes — a "|HOST=" pattern inside CONTENT
// can never match. It reports ok=false when the magic is wrong or the header
// deviates from the wire layout (such datagrams fail Parse anyway).
func PartitionFields(datagram []byte) (job, host []byte, ok bool) {
	if len(datagram) < len(magic)+1 || string(datagram[:len(magic)+1]) != magic+"|" {
		return nil, nil, false
	}
	rest := datagram[len(magic)+1:]
	for i, prefix := range fieldPrefixes {
		if len(rest) < len(prefix) || string(rest[:len(prefix)]) != prefix {
			return nil, nil, false
		}
		rest = rest[len(prefix):]
		sep := bytes.IndexByte(rest, '|')
		if sep < 0 {
			return nil, nil, false // header values are always '|'-terminated
		}
		switch i {
		case 0:
			job = rest[:sep]
		case 4:
			return job, rest[:sep], true // HOST: done, content never reached
		}
		rest = rest[sep+1:]
	}
	return nil, nil, false
}

// fieldPrefixes are the ten fixed header fields preceding CONTENT, in wire
// order. Precomputed so the parse hot path never concatenates strings.
var fieldPrefixes = [...]string{"JOBID=", "STEPID=", "PID=", "HASH=", "HOST=", "TIME=", "LAYER=", "TYPE=", "SEQ=", "TOT="}

// PartitionHash is the canonical shard-partitioning hash over the JOBID and
// HOST header values. The receiver's dispatcher and sirendb's store shards
// must agree on this function: when the receiver's writer-shard count equals
// the store's shard count, every message a writer handles hashes to the store
// shard with the writer's own index, so batches route shard→shard with no
// re-partitioning and no cross-shard lock contention.
// Membership rendezvous scores are seeded by it too, so it is a
// cross-process protocol pinned by TestPartitionHashGolden.
func PartitionHash(job, host []byte) uint64 {
	return xxhash.Sum64Seed(host, xxhash.Sum64(job))
}

// Parse decodes a datagram produced by Encode.
//
// This is the receiver's per-message hot path, so copying is kept minimal:
// the header region is converted to a string exactly once (every string
// field of the Message shares that one small allocation) and the content
// bytes are copied exactly once. A valid datagram's header cannot contain
// '|' inside a value, so the first "|CONTENT=" occurrence is always the real
// content marker — content itself may contain the pattern freely.
func Parse(datagram []byte) (Message, error) {
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
			val, s = s, "" // TOT runs to the content marker
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
		// Extra bytes between TOT and the content marker: not Encode output.
		return Message{}, fmt.Errorf("%w: trailing header bytes", ErrMalformed)
	}
	m.Content = append([]byte{}, datagram[ci+len(contentMark):]...) // non-nil even when empty, like []byte("")
	if m.Total < 1 || m.Seq < 0 || m.Seq >= m.Total {
		return Message{}, fmt.Errorf("%w: chunk %d/%d out of range", ErrMalformed, m.Seq, m.Total)
	}
	return m, nil
}

// Chunk splits one logical record into datagrams no larger than maxSize.
// Header overhead is measured per chunk; content is sliced to fit. A record
// with empty content still produces one chunk (types like FILE_H always
// announce themselves even when the hash is empty).
func Chunk(h Header, content []byte, maxSize int) []Message {
	if maxSize <= 0 {
		maxSize = MaxDatagram
	}
	// Overhead of a chunk with worst-case SEQ/TOT digits.
	probe := Message{Header: h}
	probe.Seq, probe.Total = 999999, 999999
	overhead := len(Encode(probe))
	room := maxSize - overhead
	if room < 16 {
		room = 16 // pathological header: still make progress
	}
	n := (len(content) + room - 1) / room
	if n == 0 {
		n = 1
	}
	msgs := make([]Message, 0, n)
	for i := 0; i < n; i++ {
		lo := i * room
		hi := lo + room
		if hi > len(content) {
			hi = len(content)
		}
		m := Message{Header: h, Content: content[lo:hi]}
		m.Seq, m.Total = i, n
		msgs = append(msgs, m)
	}
	return msgs
}

// Record is a reassembled logical record.
type Record struct {
	// Header is the first chunk seen, except Total, which is the largest
	// Total announced by any chunk of the group — the chunk count the record
	// was reassembled against.
	Header  Header
	Content []byte
	// Complete is false when chunks were lost in transit or when chunks of
	// the group disagreed on Total (a re-sent record with different content
	// length interleaving with the original); Content then holds the
	// concatenation of the chunks that did arrive, in order.
	Complete bool
}

// Reassemble groups messages by record key — every header field except
// Seq/Total — and joins chunk contents. Records with missing chunks are
// returned with Complete=false — SIREN keeps partial data rather than
// discarding it (the fuzzy hashes of list categories remain comparable even
// with gaps, which is why the lists are hashed as well). Records come out in
// first-appearance order.
//
// Chunks arrive in any order, so the group's chunk count is the maximum
// Total announced across its chunks — not the first-seen header's. Sizing
// the loop from the first chunk silently dropped any chunk with
// Seq >= firstTotal (a reordered re-send with a larger Total) and could mark
// the record Complete with data missing. Groups whose chunks disagree on
// Total mix two versions of the record and are never Complete. When one Seq
// arrives twice, the later arrival wins.
//
// This runs once per stored row on every consolidation, so it is shaped for
// the traffic that exists: most records are one chunk, and a record's chunks
// arrive together. A message that continues the previous message's record is
// matched without a lookup; any other goes through one map keyed by
// recordKey. Each record is built in place in the result; a single-chunk
// record keeps its content without a copy, and only a second chunk allocates
// a chunk list.
func Reassemble(msgs []Message) []Record {
	// While grouping, a Record's Header is its first chunk's with Total raised
	// to the largest announced, and its Content the first chunk's; state holds
	// the rest of what is known about it.
	type state struct {
		mismatch bool    // chunks disagreed on Total: two record versions mixed
		chunks   []chunk // every chunk in arrival order, once a second one arrived
	}
	out := make([]Record, 0, len(msgs))
	states := make([]state, 0, len(msgs))
	index := make(map[recordKey]int32, len(msgs))
	var lastKey recordKey
	last := int32(-1) // the record the previous message belonged to
	for i := range msgs {
		m := &msgs[i]
		key := recordKey{m.JobID, m.StepID, m.PID, m.Hash, m.Host, m.Time, m.Layer, m.Type}
		if last < 0 || key != lastKey {
			lastKey = key
			var seen bool
			if last, seen = index[key]; !seen { // first chunk of a new record
				last = int32(len(out))
				index[key] = last
				out = append(out, Record{Header: m.Header, Content: m.Content})
				states = append(states, state{})
				continue
			}
		}
		rec, st := &out[last], &states[last]
		if m.Total != rec.Header.Total {
			st.mismatch = true
			if m.Total > rec.Header.Total {
				rec.Header.Total = m.Total
			}
		}
		if st.chunks == nil {
			st.chunks = append(st.chunks, chunk{rec.Header.Seq, rec.Content})
		}
		st.chunks = append(st.chunks, chunk{m.Seq, m.Content})
	}
	for i := range out {
		rec, st := &out[i], &states[i]
		if st.chunks == nil {
			if len(rec.Content) == 0 {
				rec.Content = nil
			}
			rec.Complete = rec.Header.Total == 1 && rec.Header.Seq == 0
			continue
		}
		var full bool
		rec.Content, full = joinChunks(st.chunks, rec.Header.Total)
		rec.Complete = full && !st.mismatch
	}
	return out
}

// recordKey identifies one logical record: every header field except
// Seq/Total. A comparable struct rather than the fields joined with a
// separator: header values may contain any byte but '|', so a joined key can
// make two records collide, and building it costs an allocation per message.
// As a map key every field goes through the runtime's per-map seeded hash, so
// no sender can aim datagrams at one bucket.
type recordKey struct {
	jobID, stepID string
	pid           int
	hash, host    string
	time          int64
	layer, typ    string
}

// chunk is one arrived piece of a multi-chunk record.
type chunk struct {
	seq     int
	content []byte
}

// joinChunks concatenates a record's chunks in Seq order and reports whether
// they cover exactly [0, total). It walks the chunks that actually arrived,
// never the announced range: a datagram with TOT=2000000000 must not cost two
// billion steps. Arrival order is Seq order unless UDP reordered or re-sent,
// so the sort runs only then; it is stable, which leaves the latest arrival
// of a repeated Seq last in its run — the one that wins. The distinct Seqs
// are ints, so count == total with min 0 and max total-1 pigeonholes to the
// full range.
func joinChunks(chunks []chunk, total int) (content []byte, complete bool) {
	bySeq := func(a, b chunk) int { return cmp.Compare(a.seq, b.seq) }
	if !slices.IsSortedFunc(chunks, bySeq) {
		slices.SortStableFunc(chunks, bySeq)
	}
	distinct, size := 0, 0
	for i, c := range chunks {
		if i+1 < len(chunks) && chunks[i+1].seq == c.seq {
			continue // superseded by a later arrival of the same Seq
		}
		distinct++
		size += len(c.content)
	}
	complete = distinct == total && chunks[0].seq == 0 && chunks[len(chunks)-1].seq == total-1
	if size == 0 {
		return nil, complete
	}
	content = make([]byte, 0, size)
	for i, c := range chunks {
		if i+1 < len(chunks) && chunks[i+1].seq == c.seq {
			continue
		}
		content = append(content, c.content...)
	}
	return content, complete
}
