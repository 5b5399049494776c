// Fixture: snapshotmut flags every in-place mutation shape on accessor
// results — direct and via aliases — and accepts copy-first code.
package consumer

import (
	"sort"

	"fix/sirendb"
)

func bad(snap *sirendb.Snapshot) {
	rows := snap.Jobs()
	rows[0].Seq = 1                                                            // want "element write through snapshot accessor Jobs"
	sort.Slice(rows, func(i, j int) bool { return rows[i].Seq < rows[j].Seq }) // want "sort.Slice mutates snapshot accessor Jobs result in place"

	snap.Jobs()[0] = sirendb.Row{} // want "element write through snapshot accessor Jobs"

	alias := rows
	alias[1].Seq = 2 // want "element write through snapshot accessor Jobs"

	rows = append(rows, sirendb.Row{}) // want "self-append on snapshot accessor Jobs result"
	_ = rows

	m := snap.ByJob()
	delete(m, "job-1") // want "delete on snapshot accessor ByJob result"
	m["job-2"] = nil   // want "element write through snapshot accessor ByJob"
}

func good(snap *sirendb.Snapshot) []sirendb.Row {
	// Copy-first is the sanctioned pattern: the copy is yours to mutate.
	cp := append([]sirendb.Row(nil), snap.Jobs()...)
	cp[0].Seq = 1                                                        // ok: cp is a fresh copy
	sort.Slice(cp, func(i, j int) bool { return cp[i].Seq < cp[j].Seq }) // ok

	// Reading is what snapshots are for.
	total := 0
	for _, r := range snap.Jobs() {
		total += r.Seq
	}
	byJob := snap.ByJob()
	_ = len(byJob["job-1"])

	fresh := make([]sirendb.Row, 0, total)
	fresh = append(fresh, cp...) // ok: fresh local slice
	return fresh
}

// badAlias reaches the same accessors through a type alias.
func badAlias(snap *sirendb.MergedSnapshot) {
	rows := snap.Jobs()
	rows[0].Seq = 1 // want "element write through snapshot accessor Jobs"
}
