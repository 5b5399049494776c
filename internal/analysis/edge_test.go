// Edge cases of the two functions the identify endpoint leans on hardest:
// DeriveLabel (every query row's label) and prepareChar (every digest a
// query or a catalogue entry brings — a malformed digest from a hostile or
// truncated request must score 0, never abort the search).
package analysis

import (
	"reflect"
	"testing"

	"siren/internal/postprocess"
	"siren/internal/ssdeep"
)

func TestDeriveLabelEdges(t *testing.T) {
	cases := []struct {
		exe, want string
	}{
		// Empty and degenerate paths.
		{"", UnknownLabel},
		{"/", UnknownLabel},
		{"a.out", UnknownLabel},
		// Trailing slash: the rule text still matches inside the path, and
		// the /lmp[^/]*$ anchor must NOT match when lmp is a directory.
		{"/appl/lammps/", "LAMMPS"},
		{"/appl/lmp/", UnknownLabel},
		{"/appl/lmp/tool", UnknownLabel},
		// Versioned suffixes on the final segment.
		{"/appl/bin/lmp_serial-2024.1", "LAMMPS"},
		{"/appl/bin/lmp", "LAMMPS"},
		{"/appl/gromacs-2023.3/bin/mdrun", "GROMACS"},
		{"/usr/bin/gzip-1.12", "gzip"},
		// Case-insensitive rules.
		{"/APPL/LAMMPS/BIN/LMP", "LAMMPS"},
		{"/scratch/GROMACS/gmx_mpi", "GROMACS"},
		// Basename prefix rules only anchor at the last segment.
		{"/data/lmpx", "LAMMPS"}, // last segment starts with lmp
		{"/data/xlmp", UnknownLabel},
		// First match wins: a path naming two rule substrings takes the
		// earlier rule.
		{"/appl/lammps/gromacs-compat/lmp", "LAMMPS"},
		// Substring rules fire anywhere in the path, including surprising
		// containments — pinned so a rule-ordering change is a conscious one.
		{"/appl/silicon/bin/tool", "icon"},
	}
	for _, c := range cases {
		if got := DeriveLabel(c.exe); got != c.want {
			t.Errorf("DeriveLabel(%q) = %q, want %q", c.exe, got, c.want)
		}
	}
}

func TestIdentifyByHashMalformed(t *testing.T) {
	valid, err := ssdeep.HashString("the quick brown fox jumps over the lazy dog, 400 times over, with feeling")
	if err != nil {
		t.Fatal(err)
	}
	zeroCases := []struct {
		name, a, b string
	}{
		{"both empty", "", ""},
		{"left empty", "", valid},
		{"right empty", valid, ""},
		{"no colons", "notadigest", valid},
		{"one part", "3:abcdef", valid},
		{"truncated after blocksize", "3:", valid},
		{"empty signatures", "3::", valid},
		{"non-numeric blocksize", "x:abc:def", valid},
		{"zero blocksize", "0:abc:def", valid},
		{"huge blocksize", "999999999999999999999:abc:def", valid},
		{"invalid base64 chars", "3:a|b:c~d", valid},
		{"malformed on the right", valid, "3:abc"},
	}
	// a is the query, b the one catalogued binary's FILE_H.
	identify := func(a, b string, backend ssdeep.Backend) []SimilarityRow {
		d := NewDataset([]*postprocess.ProcessRecord{{JobID: "1", Category: "user", Exe: "/appl/lammps/lmp", FileH: b}})
		return d.IdentifyByHash(a, 0, backend)
	}
	for _, c := range zeroCases {
		for _, backend := range []ssdeep.Backend{ssdeep.BackendWeighted, ssdeep.BackendDamerau, ssdeep.BackendLevenshtein} {
			if got := identify(c.a, c.b, backend); len(got) != 0 {
				t.Errorf("IdentifyByHash(%s, backend %v) = %+v, want no rows", c.name, backend, got)
			}
		}
	}
	if got := identify(valid, valid, ssdeep.BackendWeighted); len(got) != 1 || got[0].FileS != 100 {
		t.Errorf("IdentifyByHash(self) = %+v, want one row scoring 100", got)
	}
}

// TestSearchSurvivesMalformedCatalogDigests pins the partial-data contract
// end to end: a fingerprint whose stored digests are truncated or corrupt
// still ranks by its remaining comparable characteristics instead of
// aborting or poisoning the search.
func TestSearchSurvivesMalformedCatalogDigests(t *testing.T) {
	good, err := ssdeep.HashString("a perfectly ordinary executable body with enough entropy to digest, repeated and varied 1 2 3 4 5 6 7 8 9")
	if err != nil {
		t.Fatal(err)
	}
	records := []*postprocess.ProcessRecord{
		{JobID: "1", Category: "user", Exe: "/appl/lammps/lmp", FileH: good, StringsH: "3:corrupted", ModulesH: "nonsense"},
		{JobID: "1", Category: "user", Exe: "/appl/gromacs/gmx", FileH: "truncated:", StringsH: ""},
	}
	ix := NewFingerprintIndex(records)
	if ix.Len() != 2 {
		t.Fatalf("index len = %d, want 2 (malformed digests still catalogued)", ix.Len())
	}
	rows := ix.Search(Digests{File: good, Strings: good, Modules: good}, 0, ssdeep.BackendWeighted)
	if len(rows) != 1 {
		t.Fatalf("rows = %+v, want exactly the FILE_H match", rows)
	}
	if rows[0].Label != "LAMMPS" || rows[0].FileS != 100 || rows[0].StringsS != 0 || rows[0].ModulesS != 0 {
		t.Errorf("malformed-digest row scored wrong: %+v", rows[0])
	}
}

// TestOneMalformedDigestScoresOtherFive pins the per-characteristic
// independence of the indexed search: an entry carrying exactly one
// malformed digest still scores nonzero on all five valid ones — parse
// failure is confined to its characteristic, for indexing and scoring alike.
func TestOneMalformedDigestScoresOtherFive(t *testing.T) {
	h := func(body string) string {
		d, err := ssdeep.HashString("shared characteristic body for " + body +
			" with enough repeated and varied structure to digest 0 1 2 3 4 5 6 7 8 9")
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	rec := &postprocess.ProcessRecord{
		JobID: "1", Category: "user", Exe: "/appl/lammps/lmp",
		FileH:    h("file"),
		ModulesH: h("modules"),
		ObjectsH: h("objects"),
		StringsH: h("strings"),
		SymbolsH: h("symbols"),
		// The sixth characteristic is corrupt — signature bytes truncated away.
		CompilersH: "1536:::::garbage",
	}
	ix := NewFingerprintIndex([]*postprocess.ProcessRecord{rec})
	q := Digests{
		File: h("file"), Modules: h("modules"), Objects: h("objects"),
		Strings: h("strings"), Symbols: h("symbols"), Compilers: h("compilers"),
	}
	rows := ix.Search(q, 0, ssdeep.BackendWeighted)
	if len(rows) != 1 {
		t.Fatalf("rows = %+v, want the one entry", rows)
	}
	r := rows[0]
	for name, score := range map[string]int{
		"File": r.FileS, "Modules": r.ModulesS, "Objects": r.ObjectsS,
		"Strings": r.StringsS, "Symbols": r.SymbolsS,
	} {
		if score == 0 {
			t.Errorf("%s scored 0, want >0 (malformed CompilersH must not poison it)", name)
		}
	}
	if r.CompilersS != 0 {
		t.Errorf("CompilersS = %d, want 0 (malformed stored digest)", r.CompilersS)
	}
	if exh := ix.SearchExhaustive(q, 0, ssdeep.BackendWeighted); !reflect.DeepEqual(rows, exh) {
		t.Errorf("indexed and exhaustive disagree on the partially-malformed entry")
	}
}
