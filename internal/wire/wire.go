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
// comparable), or the canonical bytes of a datagram's header, which parse
// field for field (Reassemble) — never a string made by joining them around
// some other "unused" byte: there is none.
//
// AppendEncode is the one encoder — senders append through it into a buffer
// they own, and so does the store for a Message it is handed — and Scan the
// one set of header checks: the receiver's writers scan each datagram and
// keep its bytes, and Decoder (Parse) builds a Message on top of a scan.
// Scan sits on the receiver's per-datagram path and on the per-row path of
// every sealed-run read, and Reassemble on that of every consolidation,
// which groups the stored datagrams themselves, so all are written to
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
// including the field separator. This is the one encoder: senders append
// their datagrams through it, and the store encodes a Message it is handed
// (InsertBatch, a run written from rows) through it too, so the bytes a row
// is stored as never depend on which path brought it.
func AppendEncode(dst []byte, m Message) []byte {
	dst, _ = AppendEncodeFields(dst, &m)
	return dst
}

// AppendEncodeFields is AppendEncode reporting the Fields of the datagram it
// appended, offsets counted from the datagram's first byte. They describe m
// as written even when the datagram would not scan — a header value holding
// '|', a chunk count out of range — so a store can index a Message it was
// handed exactly as the Message reads.
func AppendEncodeFields(dst []byte, m *Message) ([]byte, Fields) {
	base := len(dst)
	f := Fields{PID: m.PID, Time: m.Time, Seq: m.Seq, Total: m.Total, Canonical: true}
	value := func(k int, v string) {
		lo := len(dst) - base
		dst = append(dst, v...)
		f.Values[k] = Span{lo, len(dst) - base}
	}
	dst = append(dst, magic+"|JOBID="...)
	value(FieldJobID, m.JobID)
	dst = append(dst, "|STEPID="...)
	value(FieldStepID, m.StepID)
	dst = append(dst, "|PID="...)
	dst = strconv.AppendInt(dst, int64(m.PID), 10)
	dst = append(dst, "|HASH="...)
	value(FieldHash, m.Hash)
	dst = append(dst, "|HOST="...)
	value(FieldHost, m.Host)
	dst = append(dst, "|TIME="...)
	dst = strconv.AppendInt(dst, m.Time, 10)
	dst = append(dst, "|LAYER="...)
	value(FieldLayer, m.Layer)
	dst = append(dst, "|TYPE="...)
	value(FieldType, m.Type)
	dst = append(dst, "|SEQ="...)
	dst = strconv.AppendInt(dst, int64(m.Seq), 10)
	dst = append(dst, "|TOT="...)
	dst = strconv.AppendInt(dst, int64(m.Total), 10)
	dst = append(dst, contentMark...)
	f.Content = len(dst) - base
	return append(dst, m.Content...), f
}

// Encode renders the message as a fresh datagram, in one allocation of
// exactly its length.
func Encode(m Message) []byte {
	return AppendEncode(make([]byte, 0, EncodedLen(&m)), m)
}

// fixedLen is the length of the text AppendEncodeFields writes around the
// values.
const fixedLen = len(magic + "|JOBID=|STEPID=|PID=|HASH=|HOST=|TIME=|LAYER=|TYPE=|SEQ=|TOT=" + contentMark)

// EncodedLen is the exact length of the datagram AppendEncode makes of m.
func EncodedLen(m *Message) int {
	return headerLen(&m.Header) + len(m.Content)
}

// headerLen is the encoded length of a datagram carrying h and no content.
func headerLen(h *Header) int {
	return fixedLen + len(h.JobID) + len(h.StepID) + len(h.Hash) + len(h.Host) + len(h.Layer) + len(h.Type) +
		decimalLen(int64(h.PID)) + decimalLen(h.Time) + decimalLen(int64(h.Seq)) + decimalLen(int64(h.Total))
}

// decimalLen is len(strconv.AppendInt(nil, v, 10)).
func decimalLen(v int64) int {
	n, u := 1, uint64(v)
	if v < 0 {
		n, u = 2, -u
	}
	for ; u >= 10; u /= 10 {
		n++
	}
	return n
}

// ErrMalformed is returned by Parse for datagrams that do not follow the
// SIREN wire format. The receiver drops such datagrams (graceful failure).
var ErrMalformed = errors.New("wire: malformed datagram")

// fieldPrefixes are the ten fixed header fields preceding CONTENT, in wire
// order. Precomputed so the parse hot path never concatenates strings.
var fieldPrefixes = [...]string{"JOBID=", "STEPID=", "PID=", "HASH=", "HOST=", "TIME=", "LAYER=", "TYPE=", "SEQ=", "TOT="}

// PartitionHash is the canonical shard-partitioning hash over the JOBID and
// HOST header values. The receiver's reader, which hashes the values of its
// Scan of each datagram, and sirendb's store shards must agree on this
// function: when the receiver's writer-shard count equals the store's shard
// count, every message a writer handles hashes to the store shard with the
// writer's own index, so batches route shard→shard with no re-partitioning
// and no cross-shard lock contention.
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

// String-valued header fields, in wire order: the indexes of Fields.Values.
const (
	FieldJobID = iota
	FieldStepID
	FieldHash
	FieldHost
	FieldLayer
	FieldType
	StringFields // how many there are
)

// Span is the [Lo, Hi) byte range of one header value inside its datagram.
type Span struct{ Lo, Hi int }

// Fields is what Scan reads from a datagram: the header's integers, where
// its string values lie, and where the content starts. It holds no pointer
// and no string, so a writer can keep the datagram's own bytes as the row
// and never build a Message for it.
type Fields struct {
	PID   int
	Time  int64
	Seq   int
	Total int
	// Values are the spans of JOBID, STEPID, HASH, HOST, LAYER and TYPE,
	// indexed by the Field* constants.
	Values [StringFields]Span
	// Content is the offset of the first content byte.
	Content int
	// Canonical reports that the datagram is byte for byte what
	// AppendEncode makes of the Message it parses to. Only the integers can
	// be spelled another way: with a '+' sign, with leading zeros, or as -0.
	Canonical bool
}

// Value returns the bytes of string field k (a Field* constant) of the
// datagram f was scanned from.
func (f *Fields) Value(datagram []byte, k int) []byte {
	return datagram[f.Values[k].Lo:f.Values[k].Hi]
}

// Scanned is one datagram together with its scan.
type Scanned struct {
	Datagram []byte
	Fields
}

// CanonicalValues returns the Values that Scan reports for the canonical
// datagram whose string values are lens bytes long, indexed by the Field*
// constants, and whose PID and TIME are pid and time: in a datagram
// AppendEncode wrote, each value starts where the fixed text and everything
// before it end. A store that indexed a row's values and integers hands the
// row out with this instead of scanning it again.
func CanonicalValues(lens *[StringFields]int, pid int, time int64) [StringFields]Span {
	var v [StringFields]Span
	pos := len(magic + "|JOBID=")
	v[FieldJobID] = Span{pos, pos + lens[FieldJobID]}
	pos = v[FieldJobID].Hi + len("|STEPID=")
	v[FieldStepID] = Span{pos, pos + lens[FieldStepID]}
	pos = v[FieldStepID].Hi + len("|PID=") + decimalLen(int64(pid)) + len("|HASH=")
	v[FieldHash] = Span{pos, pos + lens[FieldHash]}
	pos = v[FieldHash].Hi + len("|HOST=")
	v[FieldHost] = Span{pos, pos + lens[FieldHost]}
	pos = v[FieldHost].Hi + len("|TIME=") + decimalLen(time) + len("|LAYER=")
	v[FieldLayer] = Span{pos, pos + lens[FieldLayer]}
	pos = v[FieldLayer].Hi + len("|TYPE=")
	v[FieldType] = Span{pos, pos + lens[FieldType]}
	return v
}

// Scan checks a datagram exactly as Decode does — it accepts what Decode
// accepts and rejects the rest with Decode's error — and reports the header
// as Fields, allocating nothing on success.
func Scan(datagram []byte) (Fields, error) {
	var f Fields
	if err := scan(datagram, &f); err != nil {
		return Fields{}, err
	}
	return f, nil
}

// scan is Scan into *f, which holds garbage after an error.
func scan(datagram []byte, f *Fields) error {
	if scanWellFormed(datagram, f) {
		return nil
	}
	return scanChecked(datagram, f)
}

// scanWellFormed is scan for a datagram that has every field where a valid
// one has it and every integer spelled as AppendEncode spells it: one walk
// over the header, each field's prefix checked where it must begin, a string
// value ended by the next '|', an integer parsed digit by digit up to its
// '|', the one after TOT beginning the content marker. It reports false,
// leaving the datagram and its error to scanChecked, at the first byte such
// a datagram would not have there — a non-canonical integer included, so
// whatever it accepts is canonical. When it succeeds scanChecked succeeds
// with the same Fields: a value holds no '|', and every '|' before TOT's is
// followed by a field prefix, so the first content marker is the one after
// TOT. It exists because scanChecked's search for that marker first costs
// as much again as the walk (every '|' of the header is a candidate), and
// every stored row is scanned on each sealed read. Each fixed text is
// written out as a constant, which the compiler compares a word at a time;
// through a table of prefixes, or a helper, it would be a call per text.
func scanWellFormed(d []byte, f *Fields) bool {
	const first = magic + "|JOBID="
	if len(d) < fixedLen+4 || string(d[:len(first)]) != first {
		return false
	}
	var ok bool
	var pid, time, seq, total int64
	p := len(first)
	if f.Values[FieldJobID], p, ok = stringValue(d, p); !ok ||
		len(d)-p < len("STEPID=") || string(d[p:p+len("STEPID=")]) != "STEPID=" {
		return false
	}
	if f.Values[FieldStepID], p, ok = stringValue(d, p+len("STEPID=")); !ok ||
		len(d)-p < len("PID=") || string(d[p:p+len("PID=")]) != "PID=" {
		return false
	}
	if pid, p, ok = intValue(d, p+len("PID="), false); !ok ||
		len(d)-p < len("HASH=") || string(d[p:p+len("HASH=")]) != "HASH=" {
		return false
	}
	if f.Values[FieldHash], p, ok = stringValue(d, p+len("HASH=")); !ok ||
		len(d)-p < len("HOST=") || string(d[p:p+len("HOST=")]) != "HOST=" {
		return false
	}
	if f.Values[FieldHost], p, ok = stringValue(d, p+len("HOST=")); !ok ||
		len(d)-p < len("TIME=") || string(d[p:p+len("TIME=")]) != "TIME=" {
		return false
	}
	if time, p, ok = intValue(d, p+len("TIME="), true); !ok ||
		len(d)-p < len("LAYER=") || string(d[p:p+len("LAYER=")]) != "LAYER=" {
		return false
	}
	if f.Values[FieldLayer], p, ok = stringValue(d, p+len("LAYER=")); !ok ||
		len(d)-p < len("TYPE=") || string(d[p:p+len("TYPE=")]) != "TYPE=" {
		return false
	}
	if f.Values[FieldType], p, ok = stringValue(d, p+len("TYPE=")); !ok ||
		len(d)-p < len("SEQ=") || string(d[p:p+len("SEQ=")]) != "SEQ=" {
		return false
	}
	if seq, p, ok = intValue(d, p+len("SEQ="), false); !ok ||
		len(d)-p < len("TOT=") || string(d[p:p+len("TOT=")]) != "TOT=" {
		return false
	}
	if total, p, ok = intValue(d, p+len("TOT="), false); !ok ||
		len(d)-p+1 < len(contentMark) || string(d[p-1:p-1+len(contentMark)]) != contentMark {
		return false
	}
	if total < 1 || seq < 0 || seq >= total {
		return false
	}
	f.PID, f.Time, f.Seq, f.Total = int(pid), time, int(seq), int(total)
	f.Content, f.Canonical = p-1+len(contentMark), true
	return true
}

// stringValue returns the span of the header value at d[p:], which the
// next '|' ends, and the position after that '|'.
func stringValue(d []byte, p int) (Span, int, bool) {
	n := bytes.IndexByte(d[p:], '|')
	if n < 0 {
		return Span{}, 0, false
	}
	return Span{p, p + n}, p + n + 1, true
}

// intValue parses the header integer at d[p:] up to its '|', and returns it
// and the position after that '|'. It reports ok only for an integer spelled
// as AppendEncode spells it — digits without a sign or a leading zero, or
// for a signed (TIME) value also '-' and a non-zero digit — and short
// enough for decimal's quick path, so that it reads what decimal reads.
func intValue(d []byte, p int, signed bool) (int64, int, bool) {
	limit := 19 // decimal's quick-path bound on a value's length
	if !signed && strconv.IntSize == 32 {
		limit = 10
	}
	i, neg := p, false
	if signed && i < len(d) && d[i] == '-' {
		i, neg = i+1, true
	}
	digits := i
	var n int64
	for ; i < len(d) && d[i]-'0' <= 9; i++ {
		n = n*10 + int64(d[i]-'0')
	}
	if i == digits || i-p >= limit || i >= len(d) || d[i] != '|' || (d[digits] == '0' && (neg || i-digits > 1)) {
		return 0, 0, false
	}
	if neg {
		n = -n
	}
	return n, i + 1, true
}

// scanChecked is scan for any datagram: it finds the content marker first
// and checks the header before it field by field, reporting the first
// deviation as Decode's error.
func scanChecked(datagram []byte, f *Fields) error {
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
	f.Canonical = true // every other field is set below before a nil return
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
		if k := stringField[i]; k >= 0 {
			f.Values[k] = Span{lo, hi}
			continue
		}
		val := hdr[lo:hi]
		n, err := decimal(val, i == 5) // TIME is an int64, the rest ints
		if err != nil {
			return fmt.Errorf("%w: field %s: %v", ErrMalformed, prefix[:len(prefix)-1], err)
		}
		f.Canonical = f.Canonical && canonicalDecimal(val)
		switch i {
		case 2:
			f.PID = int(n)
		case 5:
			f.Time = n
		case 8:
			f.Seq = int(n)
		case 9:
			f.Total = int(n)
		}
	}
	if pos != len(hdr) {
		// Extra bytes between TOT and the content marker: not Encode output.
		return fmt.Errorf("%w: trailing header bytes", ErrMalformed)
	}
	if f.Total < 1 || f.Seq < 0 || f.Seq >= f.Total {
		return fmt.Errorf("%w: chunk %d/%d out of range", ErrMalformed, f.Seq, f.Total)
	}
	f.Content = ci + len(contentMark)
	return nil
}

// canonicalDecimal reports whether a header integer that decimal accepted
// is spelled as strconv.AppendInt spells its value: no '+', no leading
// zero, no -0.
func canonicalDecimal(v []byte) bool {
	if v[0] == '-' {
		return v[1] != '0'
	}
	return v[0] != '+' && (v[0] != '0' || len(v) == 1)
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
	prev [StringFields]string // JOBID, STEPID, HASH, HOST, LAYER, TYPE of the last success
}

// stringField maps the header fields, in wire order, onto the Field*
// indexes; -1 marks the integer fields.
var stringField = [len(fieldPrefixes)]int{FieldJobID, FieldStepID, -1, FieldHash, FieldHost, -1, FieldLayer, FieldType, -1, -1}

// contentMark ends the header region. A valid datagram's header cannot contain
// '|' inside a value, so its first occurrence is always the real content
// marker — content itself may contain the pattern freely.
const contentMark = "|CONTENT="

// Decode parses datagram into *m, overwriting every field. On error *m is the
// zero Message and the Decoder's memory is unchanged.
func (d *Decoder) Decode(datagram []byte, m *Message) error {
	var f Fields
	if err := scan(datagram, &f); err != nil {
		*m = Message{}
		return err
	}
	d.fill(datagram, &f, m)
	return nil
}

// Fill builds *m from a datagram and its Scan exactly as Decode would,
// without scanning the datagram again.
func (d *Decoder) Fill(s *Scanned, m *Message) { d.fill(s.Datagram, &s.Fields, m) }

func (d *Decoder) fill(datagram []byte, f *Fields, m *Message) {
	vals := &d.prev   // the scan succeeded, so the memory is updated in place
	var region string // the header as one string, made for the first changed value
	for k := range f.Values {
		sp := &f.Values[k]
		val := datagram[sp.Lo:sp.Hi]
		if string(val) == vals[k] {
			continue
		}
		if k >= FieldLayer {
			if c, ok := constantValue(val); ok {
				vals[k] = c
				continue
			}
		}
		if region == "" {
			region = string(datagram[:f.Content-len(contentMark)])
		}
		vals[k] = region[sp.Lo:sp.Hi]
	}
	*m = Message{
		Header: Header{
			JobID: vals[FieldJobID], StepID: vals[FieldStepID], PID: f.PID, Hash: vals[FieldHash],
			Host: vals[FieldHost], Time: f.Time, Layer: vals[FieldLayer], Type: vals[FieldType],
			Seq: f.Seq, Total: f.Total,
		},
		Content: append([]byte{}, datagram[f.Content:]...), // non-nil even when empty, like []byte("")
	}
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

// ValueString returns a LAYER or TYPE value as a string: the package
// constant it spells, allocating nothing, or else a copy.
func ValueString(v []byte) string {
	if c, ok := constantValue(v); ok {
		return c
	}
	return string(v)
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
	n, room := ChunkPlan(h, len(content), maxSize)
	msgs := make([]Message, n)
	for i := range msgs {
		msgs[i] = ChunkAt(h, content, i, n, room)
	}
	return msgs
}

// ChunkPlan reports how Chunk splits a record of size content bytes under
// header h: into n chunks of room content bytes each, the last one holding
// the rest. The room is measured against a header with worst-case SEQ/TOT
// digits, without encoding anything.
func ChunkPlan(h Header, size, maxSize int) (n, room int) {
	if maxSize <= 0 {
		maxSize = MaxDatagram
	}
	h.Seq, h.Total = 999999, 999999
	room = maxSize - headerLen(&h)
	if room < 16 {
		room = 16 // pathological header: still make progress
	}
	return max(1, (size+room-1)/room), room
}

// ChunkAt is chunk i of the n that ChunkPlan's room splits content into.
func ChunkAt(h Header, content []byte, i, n, room int) Message {
	h.Seq, h.Total = i, n
	lo := i * room
	return Message{Header: h, Content: content[lo:min(lo+room, len(content))]}
}

// Record is one logical record reassembled from stored rows. It holds no
// bytes of its own: Row and the chunks are the rows handed to Reassemble,
// so a Record is valid exactly as long as they are.
type Record struct {
	// Row is the record's first chunk to arrive.
	Row *Scanned
	// Total is the largest Total any chunk of the record announced — the
	// chunk count the record was reassembled against.
	Total int
	// Complete is false when chunks were lost in transit or when chunks of
	// the group disagreed on Total (a re-sent record with different content
	// length interleaving with the original); the content then is the
	// concatenation of the chunks that did arrive, in order.
	Complete bool

	rows      int32      // chunks that arrived, repeats included
	mismatch  bool       // chunks disagreed on Total: two record versions mixed
	conflicts int32      // byte versions of a Seq beyond its first, summed over Seqs
	chunks    []*Scanned // two or more rows: the content's chunks in Seq order, each Seq once
}

// key is the bytes every chunk of the record shares: its datagram up to the
// end of the TYPE value — every header field but SEQ and TOT.
func (r *Record) key() []byte { return r.Row.Datagram[:r.Row.Values[FieldType].Hi] }

// Chunks is the number of distinct chunks the record holds: the rows handed
// to Reassemble, less every further copy of a Seq.
func (r *Record) Chunks() int {
	if r.chunks == nil {
		return 1
	}
	return len(r.chunks)
}

// Conflicts is the number of distinct byte versions of each Seq beyond the
// first, summed over the record's Seqs. A re-sent or double-stored datagram
// is an exact repeat, so a conflict means two senders produced different
// data under one record's header.
func (r *Record) Conflicts() int { return int(r.conflicts) }

// Single returns the record's content as a view of its one chunk's
// datagram, or false when the content spans several chunks and must be
// joined (AppendContent).
func (r *Record) Single() ([]byte, bool) {
	switch len(r.chunks) {
	case 0:
		return r.Row.Datagram[r.Row.Content:], true
	case 1:
		return r.chunks[0].Datagram[r.chunks[0].Content:], true
	}
	return nil, false
}

// AppendContent appends the record's content — its chunks' contents in Seq
// order — to dst and returns the extended buffer.
func (r *Record) AppendContent(dst []byte) []byte {
	if r.chunks == nil {
		return append(dst, r.Row.Datagram[r.Row.Content:]...)
	}
	for _, c := range r.chunks {
		dst = append(dst, c.Datagram[c.Content:]...)
	}
	return dst
}

// Reassemble groups rows into logical records and orders each record's
// chunks. Records with missing chunks come out with Complete=false — SIREN
// keeps partial data rather than discarding it (the fuzzy hashes of list
// categories remain comparable even with gaps, which is why the lists are
// hashed as well). Records come out in first-appearance order.
//
// Rows are grouped by their datagram up to the end of the TYPE value. The
// rows must be canonical — every integer spelled as AppendEncode spells it,
// which is what a store holds (DESIGN.md §3) — and then those bytes are
// equal exactly when the eight header fields other than SEQ and TOT are:
// every value is '|'-free and every integer has one spelling, so the
// prefixes parse field for field.
//
// Chunks arrive in any order, so the group's chunk count is the maximum
// Total announced across its chunks — not the first-seen one. Groups whose
// chunks disagree on Total mix two versions of the record and are never
// Complete. When one Seq arrives more than once, the copy whose datagram
// bytes are greatest is kept, whatever the arrival order: an exact repeat of
// a row changes nothing, and each further byte version of a Seq counts in
// Conflicts. So a record is a function of the set of rows handed in, and a
// copy stored elsewhere (a failover overlap) cannot change which version
// survives.
//
// This runs once per stored row on every consolidation, so it is shaped for
// the traffic that exists: most records are one chunk, and a record's chunks
// arrive together. A row that continues the previous row's record is matched
// by comparing its key; any other goes through one recordTable. Nothing is
// copied: a record refers to its rows, and a record of several chunks to a
// window of one array of row pointers, filled by a counting pass.
func Reassemble(rows []Scanned) []Record {
	var a Reassembler
	return a.Reassemble(rows)
}

// Reassembler is Reassemble with its working memory — the records, the
// row-to-record map, the chunk window and the table — kept from one call to
// the next, so a consolidation worker that reassembles job after job
// allocates only when a job is larger than any before it. The records a
// call returns are valid until the next call. The table still draws a fresh
// hash seed on every call. A Reassembler is not safe for concurrent use; its
// zero value is ready.
type Reassembler struct {
	out    []Record
	recOf  []int32 // row -> record
	window []*Scanned
	index  recordTable
}

// Reassemble is the package-level Reassemble, into a's memory.
func (a *Reassembler) Reassemble(rows []Scanned) []Record {
	out, recOf := reuse(a.out, len(rows))[:0], reuse(a.recOf, len(rows))
	a.index.reset(len(rows))
	index := &a.index
	var lastKey []byte
	last := int32(-1) // the record the previous row belonged to
	multi := 0        // rows of records with more than one
	for i := range rows {
		r := &rows[i]
		key := r.Datagram[:r.Values[FieldType].Hi]
		if last < 0 || !bytes.Equal(key, lastKey) {
			lastKey = key
			slot := index.find(key, out)
			if last = index.slots[slot] - 1; last < 0 { // first chunk of a new record
				last = int32(len(out))
				index.slots[slot] = last + 1
				out = append(out, Record{Row: r, Total: r.Total, rows: 1})
				recOf[i] = last
				continue
			}
		}
		recOf[i] = last
		rec := &out[last]
		if r.Total != rec.Total {
			rec.mismatch = true
			rec.Total = max(rec.Total, r.Total)
		}
		if rec.rows++; rec.rows == 2 {
			multi++
		}
		multi++
	}
	a.out, a.recOf = out, recOf
	if multi > 0 {
		a.window = reuse(a.window, multi)
		window := a.window
		for j := range out {
			if n := int(out[j].rows); n > 1 {
				out[j].chunks, window = window[:0:n], window[n:]
			}
		}
		for i, j := range recOf {
			if rec := &out[j]; rec.rows > 1 {
				rec.chunks = append(rec.chunks, &rows[i]) // within the window's capacity
			}
		}
	}
	for j := range out {
		rec := &out[j]
		if rec.chunks == nil {
			rec.Complete = rec.Total == 1 && rec.Row.Seq == 0
			continue
		}
		var full bool
		rec.chunks, rec.conflicts, full = orderChunks(rec.chunks, rec.Total)
		rec.Complete = full && !rec.mismatch
	}
	return out
}

// reuse returns s at length n: s itself while its capacity suffices, else a
// new slice of exactly n. The elements keep whatever they held.
func reuse[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// recordTable finds a record by its key: an open-addressed table of record
// numbers plus one, 0 marking an empty slot, linear probing at load at most
// one half. It is Reassemble's only lookup, sized once per call, so it costs
// at most one allocation however many records there are.
//
// Keys are hashed with maphash under a seed drawn per call, so a sender who
// does not know the seed cannot choose keys that share a probe run; and a
// probe compares full keys, so two keys with one hash are still two records.
type recordTable struct {
	seed  maphash.Seed
	mask  uint64
	slots []int32
}

// reset empties the table, sized for n keys, under a fresh seed.
func (t *recordTable) reset(n int) {
	size := 2
	for size < 2*n {
		size <<= 1
	}
	t.slots = reuse(t.slots, size)
	clear(t.slots)
	t.seed, t.mask = maphash.MakeSeed(), uint64(size-1)
}

// find returns the slot holding key's record number, or the empty slot where
// it belongs. recs are the records numbered so far.
func (t *recordTable) find(key []byte, recs []Record) uint64 {
	i := maphash.Bytes(t.seed, key) & t.mask
	for t.slots[i] != 0 && !bytes.Equal(recs[t.slots[i]-1].key(), key) {
		i = (i + 1) & t.mask
	}
	return i
}

// orderChunks sorts a record's chunks by (Seq, datagram bytes), keeps the
// greatest copy of each Seq, and reports how many byte versions of a Seq
// there are beyond the first, and whether the chunks cover exactly
// [0, total). It walks the chunks that actually arrived, never the
// announced range: a datagram with TOT=2000000000 must not cost two billion
// steps. Arrival order is Seq order unless UDP reordered or re-sent, so the
// sort runs only then. Equal copies sort next to each other, so each change
// of bytes within a Seq's run is one more version. The distinct Seqs are
// ints, so count == total with min 0 and max total-1 pigeonholes to the full
// range.
func orderChunks(chunks []*Scanned, total int) (kept []*Scanned, conflicts int32, complete bool) {
	bySeq := func(a, b *Scanned) int {
		if c := cmp.Compare(a.Seq, b.Seq); c != 0 {
			return c
		}
		return bytes.Compare(a.Datagram, b.Datagram)
	}
	if !slices.IsSortedFunc(chunks, bySeq) {
		slices.SortFunc(chunks, bySeq)
	}
	kept = chunks[:0] // in place: kept[k] is written only once chunks[k] was read
	for i, c := range chunks {
		if i+1 < len(chunks) && chunks[i+1].Seq == c.Seq {
			if !bytes.Equal(chunks[i+1].Datagram, c.Datagram) {
				conflicts++
			}
			continue // a greater or equal copy of the same Seq follows
		}
		kept = append(kept, c)
	}
	complete = len(kept) == total && kept[0].Seq == 0 && kept[len(kept)-1].Seq == total-1
	return kept, conflicts, complete
}
