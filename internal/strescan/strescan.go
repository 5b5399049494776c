// Package strescan extracts printable character sequences from binary data,
// equivalent to the strings(1) utility that SIREN mirrors when computing the
// STRINGS_H fuzzy hash of an executable.
//
// A "printable string" is a maximal run of at least MinLength printable
// bytes. By default the printable set matches strings(1): ASCII 0x20–0x7E
// plus horizontal tab.
package strescan

import (
	"bytes"
	"io"
	"iter"
)

// DefaultMinLength is the minimum run length reported by default, matching
// the strings(1) default of 4.
const DefaultMinLength = 4

// Options configure a scan.
type Options struct {
	// MinLength is the minimum printable-run length to report.
	// Zero means DefaultMinLength.
	MinLength int
	// IncludeTab treats horizontal tab (0x09) as printable, as strings(1)
	// does. Default true via DefaultOptions.
	IncludeTab bool
	// MaxStrings bounds the number of strings returned; zero means no bound.
	MaxStrings int
}

// DefaultOptions returns the strings(1)-compatible configuration.
func DefaultOptions() Options {
	return Options{MinLength: DefaultMinLength, IncludeTab: true}
}

func (o Options) minLen() int {
	if o.MinLength <= 0 {
		return DefaultMinLength
	}
	return o.MinLength
}

// printable is the printable set as a table: printable[b] is 1 when byte b
// may be part of a string, 0 otherwise.
func (o Options) printable() *[256]uint8 {
	if o.IncludeTab {
		return &printableTab
	}
	return &printableASCII
}

// Extract returns every printable string in data using DefaultOptions.
func Extract(data []byte) []string {
	return ExtractWith(data, DefaultOptions())
}

// ExtractWith returns every printable string in data subject to opts.
func ExtractWith(data []byte, opts Options) []string {
	var out []string
	for s := range Strings(data, opts) {
		out = append(out, string(s))
	}
	return out
}

// Strings yields every printable string in data subject to opts, in order,
// each as a slice of data — nothing is copied, so a consumer that only reads
// the strings (a fuzzy hasher) allocates nothing for them.
func Strings(data []byte, opts Options) iter.Seq[[]byte] {
	return func(yield func([]byte) bool) {
		minLen, printable := opts.minLen(), opts.printable()
		// run is the length of the printable run ending at the current
		// byte, kept without a branch on each byte's class: binary data
		// alternates classes too often for one to predict.
		run, n := 0, 0
		for i, b := range data {
			p := int(printable[b])
			if run >= minLen && p == 0 {
				if !yield(data[i-run : i]) {
					return
				}
				if n++; opts.MaxStrings > 0 && n >= opts.MaxStrings {
					return
				}
			}
			run = (run + 1) & -p
		}
		if run >= minLen {
			yield(data[len(data)-run:])
		}
	}
}

// printableASCII and printableTab are the printable sets without and with
// IncludeTab, 1 for a printable byte and 0 for any other.
var printableASCII, printableTab = printableTables()

func printableTables() (ascii, tab [256]uint8) {
	for b := 0x20; b <= 0x7E; b++ {
		ascii[b], tab[b] = 1, 1
	}
	tab['\t'] = 1
	return ascii, tab
}

// Dump renders all printable strings one per line, the form SIREN feeds to
// the fuzzy hasher for STRINGS_H. Feeding the joined dump (rather than
// hashing strings individually) preserves ordering information, so
// reordered or inserted strings still yield similar digests.
func Dump(data []byte) []byte {
	return DumpWith(data, DefaultOptions())
}

// DumpWith is Dump with explicit options.
func DumpWith(data []byte, opts Options) []byte {
	var buf bytes.Buffer
	for s := range Strings(data, opts) {
		buf.Write(s)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// Scan reads r to EOF and extracts printable strings with DefaultOptions.
func Scan(r io.Reader) ([]string, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return Extract(data), nil
}

// Count returns how many printable strings data contains without
// materialising them.
func Count(data []byte, opts Options) int {
	minLen, printable := opts.minLen(), opts.printable()
	n := 0
	run := 0
	for _, b := range data {
		if printable[b] != 0 {
			run++
			continue
		}
		if run >= minLen {
			n++
		}
		run = 0
	}
	if run >= minLen {
		n++
	}
	return n
}
