package siren_test

import (
	"maps"
	"slices"
	"testing"

	"siren/internal/analysis"
	"siren/internal/apps"
	"siren/internal/campaign"
	"siren/internal/core"
	"siren/internal/postprocess"
	"siren/internal/ssdeep"
)

// TestRecognitionOnVariantSweep pins how well the fuzzy hashes recognise
// software, on a corpus of every executable the catalogue builds: one
// campaign.Sweep job per (app, variant), collected, sent, stored and
// consolidated on the production path. Truth is the catalogue's source
// family, so the UNKNOWN a.out builds count as icon. Each binary is queried
// against all the others (leave one binary out); a query is right when its
// best non-self row comes from the same family. The counts are exact: a
// change to collection, hashing, scoring or ranking that moves any of them
// must say so.
func TestRecognitionOnVariantSweep(t *testing.T) {
	p, err := core.NewPipeline(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	res, err := campaign.Sweep(campaign.Config{Transport: p.Transport(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	data, _, err := p.Analyze()
	if err != nil {
		t.Fatal(err)
	}

	// family maps each catalogued executable to its source family.
	family := map[string]string{}
	for _, app := range res.Catalog.Apps {
		for _, v := range app.Variants {
			family[v.Path] = app.SourceName
		}
	}
	var bins []*postprocess.ProcessRecord
	seen := map[string]bool{}
	fileHs := map[string]bool{}
	for _, r := range data.Records {
		if r.Category == "user" && r.FileH != "" && !seen[r.Exe] {
			seen[r.Exe] = true
			fileHs[r.FileH] = true
			bins = append(bins, r)
		}
	}
	for _, b := range bins {
		if family[b.Exe] == "" {
			t.Fatalf("sweep record %s is not a catalogue variant", b.Exe)
		}
	}
	// The seven UNKNOWN builds are byte copies of icon builds, so 201
	// executables carry 194 distinct FILE_H.
	if len(bins) != 201 || len(family) != 201 || res.JobsRun != 201 || len(fileHs) != 194 {
		t.Fatalf("sweep: %d user executables with %d distinct FILE_H over %d jobs, want 201 with 194 over 201 (catalogue has %d)",
			len(bins), len(fileHs), res.JobsRun, len(family))
	}

	ix := analysis.NewFingerprintIndex(data.Records)
	// top1 counts the binaries whose best non-self row under q is from
	// their own family.
	top1 := func(q func(r *postprocess.ProcessRecord) analysis.Digests) int {
		n := 0
		for _, b := range bins {
			for _, row := range ix.Search(q(b), 2, ssdeep.BackendWeighted) {
				if row.Exe != b.Exe {
					if family[row.Exe] == family[b.Exe] {
						n++
					}
					break
				}
			}
		}
		return n
	}
	// exact counts the binaries another binary of their family matches by
	// FILE_H equality, the XALT baseline.
	exact := 0
	for _, b := range bins {
		for _, c := range bins {
			if c != b && c.FileH == b.FileH && family[c.Exe] == family[b.Exe] {
				exact++
				break
			}
		}
	}
	for _, c := range []struct {
		name      string
		got, want int
	}{
		// The three misses of the six digests are the apps with one
		// executable (GROMACS, gzip, alexandria): nothing of their own
		// family is left to find.
		{"FILE_H alone", top1(func(r *postprocess.ProcessRecord) analysis.Digests { return analysis.Digests{File: r.FileH} }), 190},
		{"STRINGS_H alone", top1(func(r *postprocess.ProcessRecord) analysis.Digests { return analysis.Digests{Strings: r.StringsH} }), 198},
		{"SYMBOLS_H alone", top1(func(r *postprocess.ProcessRecord) analysis.Digests { return analysis.Digests{Symbols: r.SymbolsH} }), 198},
		{"six digests", top1(analysis.RecordDigests), 198},
		// Exact FILE_H equality finds only the a.out copies and the icon
		// builds they copy, no rebuild.
		{"exact FILE_H (XALT)", exact, 14},
	} {
		if c.got != c.want {
			t.Errorf("%s: app-level top-1 %d/201, want %d", c.name, c.got, c.want)
		}
	}

	var aout *postprocess.ProcessRecord
	for _, b := range bins {
		if b.Exe == apps.UnknownPath {
			aout = b
		}
	}
	if aout == nil {
		t.Fatalf("no record of %s", apps.UnknownPath)
	}
	for _, backend := range []ssdeep.Backend{ssdeep.BackendWeighted, ssdeep.BackendDamerau, ssdeep.BackendLevenshtein} {
		rows := data.SimilaritySearch(aout, 1, backend)
		if len(rows) == 0 || rows[0].Label != "icon" {
			t.Errorf("%s: top row for the a.out = %+v, want icon", backend, rows)
		}
	}

	// Purity is against the catalogue's families: the share of members in
	// their cluster's largest family.
	for _, c := range []struct{ threshold, clusters int }{
		{30, 17}, {55, 63}, {80, 136}, {100, 193},
	} {
		clusters := data.SimilarityClusters(c.threshold, ssdeep.BackendWeighted)
		pure := 0
		for _, cl := range clusters {
			count := map[string]int{}
			for _, m := range cl.Members {
				count[family[m.Exe]]++
			}
			pure += slices.Max(slices.Collect(maps.Values(count)))
		}
		if len(clusters) != c.clusters || pure != 201 {
			t.Errorf("threshold %d: %d clusters with %d/201 members in their cluster's family, want %d and 201/201",
				c.threshold, len(clusters), pure, c.clusters)
		}
	}
}
