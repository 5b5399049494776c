package elfx

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
)

// ErrNotELF is returned by Parse for inputs that do not start with the ELF
// magic or are not little-endian ELF64.
var ErrNotELF = errors.New("elfx: not a little-endian ELF64 image")

// File is a parsed ELF64 image.
type File struct {
	Header   Header
	Sections []Section
	raw      []byte
}

// Raw returns the underlying image bytes (the input to Parse).
func (f *File) Raw() []byte { return f.raw }

// Parse reads a little-endian ELF64 image from data. The returned File
// aliases data; callers must not mutate it afterwards.
func Parse(data []byte) (*File, error) {
	if len(data) < HeaderSize {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the ELF header", ErrNotELF, len(data))
	}
	if data[EIMag0] != ELFMag0 || data[EIMag1] != ELFMag1 || data[EIMag2] != ELFMag2 || data[EIMag3] != ELFMag3 {
		return nil, fmt.Errorf("%w: bad magic", ErrNotELF)
	}
	if data[EIClass] != ELFClass64 {
		return nil, fmt.Errorf("%w: class %d", ErrNotELF, data[EIClass])
	}
	if data[EIData] != ELFData2LSB {
		return nil, fmt.Errorf("%w: data encoding %d", ErrNotELF, data[EIData])
	}
	le := binary.LittleEndian
	f := &File{raw: data}
	f.Header = Header{
		Class:   data[EIClass],
		Data:    data[EIData],
		OSABI:   data[EIOSABI],
		Type:    le.Uint16(data[16:18]),
		Machine: le.Uint16(data[18:20]),
		Version: le.Uint32(data[20:24]),
		Entry:   le.Uint64(data[24:32]),
		Flags:   le.Uint32(data[48:52]),
	}
	shoff := le.Uint64(data[40:48])
	shentsize := le.Uint16(data[58:60])
	shnum := int(le.Uint16(data[60:62]))
	shstrndx := int(le.Uint16(data[62:64]))
	f.Header.SectionNum = shnum
	if shnum == 0 {
		return f, nil
	}
	if shentsize != SectionHeaderSize {
		return nil, fmt.Errorf("elfx: unsupported section header size %d", shentsize)
	}
	end := shoff + uint64(shnum)*SectionHeaderSize
	if shoff == 0 || end > uint64(len(data)) || end < shoff {
		return nil, fmt.Errorf("elfx: section header table out of bounds (shoff=%d shnum=%d len=%d)", shoff, shnum, len(data))
	}

	type rawSec struct {
		nameOff uint32
		Section
	}
	raws := make([]rawSec, shnum)
	for i := 0; i < shnum; i++ {
		base := shoff + uint64(i)*SectionHeaderSize
		sh := data[base : base+SectionHeaderSize]
		rs := rawSec{
			nameOff: le.Uint32(sh[0:4]),
			Section: Section{
				Type:    le.Uint32(sh[4:8]),
				Flags:   le.Uint64(sh[8:16]),
				Addr:    le.Uint64(sh[16:24]),
				Offset:  le.Uint64(sh[24:32]),
				Size:    le.Uint64(sh[32:40]),
				Link:    le.Uint32(sh[40:44]),
				Info:    le.Uint32(sh[44:48]),
				Align:   le.Uint64(sh[48:56]),
				EntSize: le.Uint64(sh[56:64]),
			},
		}
		if rs.Type != SHTNull && rs.Type != SHTNobits && rs.Size > 0 {
			lo, hi := rs.Offset, rs.Offset+rs.Size
			if hi > uint64(len(data)) || hi < lo {
				return nil, fmt.Errorf("elfx: section %d data out of bounds [%d,%d)", i, lo, hi)
			}
			rs.Data = data[lo:hi]
		}
		raws[i] = rs
	}

	var shstr []byte
	if shstrndx > 0 && shstrndx < shnum && raws[shstrndx].Type == SHTStrtab {
		shstr = raws[shstrndx].Data
	}
	f.Sections = make([]Section, shnum)
	for i := range raws {
		raws[i].Section.Name = strtabString(shstr, raws[i].nameOff)
		f.Sections[i] = raws[i].Section
	}
	return f, nil
}

// IsELF reports whether data begins with the ELF magic (any class).
func IsELF(data []byte) bool {
	return len(data) >= 4 &&
		data[0] == ELFMag0 && data[1] == ELFMag1 && data[2] == ELFMag2 && data[3] == ELFMag3
}

// Section returns the first section with the given name, or nil.
func (f *File) Section(name string) *Section {
	for i := range f.Sections {
		if f.Sections[i].Name == name {
			return &f.Sections[i]
		}
	}
	return nil
}

// SectionByType returns the first section of the given type, or nil.
func (f *File) SectionByType(typ uint32) *Section {
	for i := range f.Sections {
		if f.Sections[i].Type == typ {
			return &f.Sections[i]
		}
	}
	return nil
}

// Comment returns the NUL-separated compiler identification strings from the
// .comment section — the field SIREN reports as "Compilers". Empty records
// are dropped; order is preserved; exact duplicates are removed (linkers
// merge SHF_MERGE|SHF_STRINGS records the same way).
func (f *File) Comment() []string {
	sec := f.Section(".comment")
	if sec == nil || len(sec.Data) == 0 {
		return nil
	}
	var out []string
	seen := make(map[string]bool)
	for _, part := range strings.Split(string(sec.Data), "\x00") {
		if part == "" || seen[part] {
			continue
		}
		seen[part] = true
		out = append(out, part)
	}
	return out
}

// Needed returns the DT_NEEDED shared-library names from the .dynamic
// section, in table order. A missing or unlinked .dynamic yields nil.
func (f *File) Needed() []string {
	var out []string
	for _, e := range f.Dynamic() {
		if e.Tag == DTNeeded {
			out = append(out, f.dynString(e.Val))
		}
	}
	return out
}

// Soname returns the DT_SONAME value, or "".
func (f *File) Soname() string {
	for _, e := range f.Dynamic() {
		if e.Tag == DTSoname {
			return f.dynString(e.Val)
		}
	}
	return ""
}

// Dynamic returns the entries of the .dynamic section up to DT_NULL.
func (f *File) Dynamic() []DynEntry {
	sec := f.SectionByType(SHTDynamic)
	if sec == nil {
		return nil
	}
	le := binary.LittleEndian
	var out []DynEntry
	for off := 0; off+DynEntrySize <= len(sec.Data); off += DynEntrySize {
		e := DynEntry{Tag: le.Uint64(sec.Data[off : off+8]), Val: le.Uint64(sec.Data[off+8 : off+16])}
		if e.Tag == DTNull {
			break
		}
		out = append(out, e)
	}
	return out
}

func (f *File) dynString(off uint64) string {
	dyn := f.SectionByType(SHTDynamic)
	if dyn == nil || int(dyn.Link) >= len(f.Sections) {
		return ""
	}
	return strtabString(f.Sections[dyn.Link].Data, uint32(off))
}

// Symbols parses the .symtab section (falling back to .dynsym) and returns
// all non-null entries in table order.
func (f *File) Symbols() ([]Symbol, error) {
	sec := f.SectionByType(SHTSymtab)
	if sec == nil {
		sec = f.SectionByType(SHTDynsym)
	}
	if sec == nil {
		return nil, nil
	}
	if int(sec.Link) >= len(f.Sections) {
		return nil, fmt.Errorf("elfx: symbol table links to invalid string table %d", sec.Link)
	}
	strs := f.Sections[sec.Link].Data
	if len(sec.Data)%SymbolSize != 0 {
		return nil, fmt.Errorf("elfx: symbol table size %d not a multiple of %d", len(sec.Data), SymbolSize)
	}
	le := binary.LittleEndian
	n := len(sec.Data) / SymbolSize
	out := make([]Symbol, 0, n)
	for i := 1; i < n; i++ { // skip the null symbol
		ent := sec.Data[i*SymbolSize : (i+1)*SymbolSize]
		info := ent[4]
		out = append(out, Symbol{
			Name:    strtabString(strs, le.Uint32(ent[0:4])),
			Binding: info >> 4,
			Type:    info & 0xF,
			Section: le.Uint16(ent[6:8]),
			Value:   le.Uint64(ent[8:16]),
			Size:    le.Uint64(ent[16:24]),
		})
	}
	return out, nil
}

// GlobalSymbolNames returns the names of all global (externally visible)
// symbols in table order — the input to SIREN's SYMBOLS_H fuzzy hash,
// equivalent to nm's external symbols.
func (f *File) GlobalSymbolNames() ([]string, error) {
	syms, err := f.Symbols()
	if err != nil {
		return nil, err
	}
	var out []string
	for _, s := range syms {
		if s.Global() && s.Name != "" {
			out = append(out, s.Name)
		}
	}
	return out, nil
}

func strtabString(tab []byte, off uint32) string {
	if tab == nil || uint64(off) >= uint64(len(tab)) {
		return ""
	}
	end := off
	for end < uint32(len(tab)) && tab[end] != 0 {
		end++
	}
	return string(tab[off:end])
}
