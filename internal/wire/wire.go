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
	"hash/maphash"
	"slices"
	"strconv"

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

// Parse decodes a datagram produced by Encode. It is a zero Decoder: the
// header region is converted to a string at most once (every changed string
// field of the Message shares that one small allocation) and the content
// bytes are copied exactly once.
func Parse(datagram []byte) (Message, error) {
	var d Decoder
	var m Message
	err := d.Decode(datagram, &m)
	return m, err
}

// Decoder parses datagrams like Parse, remembering the header strings of its
// previous successful decode. Stored rows arrive in runs of one process — a
// sealed extent is one (job, host), a job's chunks and categories are written
// together — so most headers repeat the last one, and a Decoder hands those
// values out again instead of allocating them:
//
//   - a value byte-equal to the previous successful decode's value reuses
//     that string;
//   - a LAYER or TYPE value equal to a package constant reuses the constant;
//   - every other value is sliced from one fresh string of the header region,
//     made once per decode and only when some value needs it.
//
// So no decode allocates more than Parse, and a row that repeats its
// predecessor's identity allocates only its content. The strings handed out
// are ordinary heap strings, never views of the input, so the input may be
// reused (a pooled datagram, a mapped run block) as soon as Decode returns.
// A Decoder is not safe for concurrent use; its zero value is ready.
type Decoder struct {
	prev [6]string // JOBID, STEPID, HASH, HOST, LAYER, TYPE of the last success
}

// stringField maps the string-valued header fields, in wire order, onto the
// Decoder's memory; -1 marks the integer fields.
var stringField = [len(fieldPrefixes)]int{0, 1, -1, 2, 3, -1, 4, 5, -1, -1}

// contentMark ends the header region. A valid datagram's header cannot contain
// '|' inside a value, so its first occurrence is always the real content
// marker — content itself may contain the pattern freely.
const contentMark = "|CONTENT="

// Decode parses datagram into *m, overwriting every field. On error *m is the
// zero Message and the Decoder's memory is unchanged.
func (d *Decoder) Decode(datagram []byte, m *Message) error {
	err := d.decode(datagram, m)
	if err != nil {
		*m = Message{}
	}
	return err
}

// decode stores *m once, whole, and only on success.
func (d *Decoder) decode(datagram []byte, m *Message) error {
	ci := bytes.Index(datagram, []byte(contentMark))
	if ci < 0 {
		if len(datagram) < len(magic)+1 || string(datagram[:len(magic)+1]) != magic+"|" {
			return fmt.Errorf("%w: bad magic", ErrMalformed)
		}
		return fmt.Errorf("%w: missing CONTENT", ErrMalformed)
	}
	hdr := datagram[:ci]
	if len(hdr) < len(magic)+1 || string(hdr[:len(magic)+1]) != magic+"|" {
		return fmt.Errorf("%w: bad magic", ErrMalformed)
	}
	vals := d.prev              // committed back only once the whole header is valid
	var fresh [len(vals)][2]int // [lo, hi) of each value to slice from the region; hi 0 if none
	var h Header
	pos := len(magic) + 1
	for i, prefix := range fieldPrefixes {
		if len(hdr)-pos < len(prefix) || string(hdr[pos:pos+len(prefix)]) != prefix {
			return fmt.Errorf("%w: expected field %s", ErrMalformed, prefix[:len(prefix)-1])
		}
		pos += len(prefix)
		lo, hi := pos, len(hdr)
		if sep := bytes.IndexByte(hdr[pos:], '|'); sep >= 0 {
			hi, pos = pos+sep, pos+sep+1
		} else if i == len(fieldPrefixes)-1 {
			pos = hi // TOT runs to the content marker
		} else {
			return fmt.Errorf("%w: unterminated field %s", ErrMalformed, prefix[:len(prefix)-1])
		}
		val := hdr[lo:hi]
		if k := stringField[i]; k >= 0 {
			if string(val) != vals[k] {
				fresh[k] = [2]int{lo, hi}
				if k >= 4 { // LAYER, TYPE
					if c, ok := constantValue(val); ok {
						vals[k], fresh[k] = c, [2]int{}
					}
				}
			}
			continue
		}
		n, err := decimal(val, i == 5) // TIME is an int64, the rest ints
		if err != nil {
			return fmt.Errorf("%w: field %s: %v", ErrMalformed, prefix[:len(prefix)-1], err)
		}
		switch i {
		case 2:
			h.PID = int(n)
		case 5:
			h.Time = n
		case 8:
			h.Seq = int(n)
		case 9:
			h.Total = int(n)
		}
	}
	if pos != len(hdr) {
		// Extra bytes between TOT and the content marker: not Encode output.
		return fmt.Errorf("%w: trailing header bytes", ErrMalformed)
	}
	if h.Total < 1 || h.Seq < 0 || h.Seq >= h.Total {
		return fmt.Errorf("%w: chunk %d/%d out of range", ErrMalformed, h.Seq, h.Total)
	}
	var region string // the header as one string, made for the first changed value
	for k, f := range fresh {
		if f[1] != 0 {
			if region == "" {
				region = string(hdr)
			}
			vals[k] = region[f[0]:f[1]]
		}
	}
	d.prev = vals
	h.JobID, h.StepID, h.Hash, h.Host, h.Layer, h.Type = vals[0], vals[1], vals[2], vals[3], vals[4], vals[5]
	*m = Message{Header: h, Content: append([]byte{}, datagram[ci+len(contentMark):]...)} // content non-nil even when empty, like []byte("")
	return nil
}

// decimal parses a header integer exactly as strconv.Atoi does, or as
// strconv.ParseInt(s, 10, 64) when wide. The values Encode writes — an
// optional sign and fewer than 19 bytes in all (10 for a 32-bit int) — are
// converted inline, as strconv's own fast path does, without first copying
// them into a string; anything else goes to strconv, which also words every
// error.
func decimal(v []byte, wide bool) (int64, error) {
	limit := 19
	if !wide && strconv.IntSize == 32 {
		limit = 10
	}
	if 0 < len(v) && len(v) < limit {
		digits, neg := v, false
		if v[0] == '-' || v[0] == '+' {
			digits, neg = v[1:], v[0] == '-'
		}
		var n int64
		ok := len(digits) > 0
		for _, c := range digits {
			if c < '0' || c > '9' {
				ok = false
				break
			}
			n = n*10 + int64(c-'0')
		}
		if ok {
			if neg {
				n = -n
			}
			return n, nil
		}
	}
	if wide {
		return strconv.ParseInt(string(v), 10, 64)
	}
	n, err := strconv.Atoi(string(v))
	return int64(n), err
}

// constantValue returns the package constant spelled by a LAYER or TYPE
// value, so a changed value of a known category allocates nothing.
func constantValue(v []byte) (string, bool) {
	switch string(v) {
	case LayerSelf:
		return LayerSelf, true
	case LayerScript:
		return LayerScript, true
	case TypeMetadata:
		return TypeMetadata, true
	case TypeObjects:
		return TypeObjects, true
	case TypeModules:
		return TypeModules, true
	case TypeCompilers:
		return TypeCompilers, true
	case TypeMaps:
		return TypeMaps, true
	case TypeFileH:
		return TypeFileH, true
	case TypeStringsH:
		return TypeStringsH, true
	case TypeSymbolsH:
		return TypeSymbolsH, true
	case TypeObjectsH:
		return TypeObjectsH, true
	case TypeModulesH:
		return TypeModulesH, true
	case TypeCompilersH:
		return TypeCompilersH, true
	case TypeMapsH:
		return TypeMapsH, true
	}
	return "", false
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
// matched without a lookup; any other goes through one recordTable. Each
// record is built in place in the result; a single-chunk record keeps its
// content without a copy, and only a second chunk allocates a chunk list.
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
	index := newRecordTable(len(msgs))
	var lastKey recordKey
	last := int32(-1) // the record the previous message belonged to
	for i := range msgs {
		m := &msgs[i]
		key := keyOf(&m.Header)
		if last < 0 || key != lastKey {
			lastKey = key
			slot := index.find(key, out)
			if last = index.slots[slot] - 1; last < 0 { // first chunk of a new record
				last = int32(len(out))
				index.slots[slot] = last + 1
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
type recordKey struct {
	jobID, stepID string
	pid           int
	hash, host    string
	time          int64
	layer, typ    string
}

func keyOf(h *Header) recordKey {
	return recordKey{h.JobID, h.StepID, h.PID, h.Hash, h.Host, h.Time, h.Layer, h.Type}
}

// recordTable finds a record by its key: an open-addressed table of record
// numbers plus one, 0 marking an empty slot, linear probing at load at most
// one half. It is Reassemble's only lookup, sized once per call, so it costs
// one allocation however many records there are — a Go map keyed by the
// 112-byte recordKey hashed every miss twice (lookup, then insert) and copied
// each key into the map.
//
// Keys are hashed with maphash.Comparable under a seed drawn per table, which
// covers every field of the struct — the two integers included — so a sender
// who does not know the seed cannot choose keys that share a probe run; and a
// probe compares full keys, so two keys with one hash are still two records.
type recordTable struct {
	seed  maphash.Seed
	mask  uint64
	slots []int32
}

func newRecordTable(n int) recordTable {
	size := 2
	for size < 2*n {
		size <<= 1
	}
	return recordTable{seed: maphash.MakeSeed(), mask: uint64(size - 1), slots: make([]int32, size)}
}

// find returns the slot holding key's record number, or the empty slot where
// it belongs. recs are the records numbered so far.
func (t *recordTable) find(key recordKey, recs []Record) uint64 {
	i := maphash.Comparable(t.seed, key) & t.mask
	for t.slots[i] != 0 && keyOf(&recs[t.slots[i]-1].Header) != key {
		i = (i + 1) & t.mask
	}
	return i
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
