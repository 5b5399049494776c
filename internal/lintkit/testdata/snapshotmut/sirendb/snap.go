// Fixture stand-in for the real store: a Snapshot whose accessors hand out
// shared slices and maps, exactly like internal/sirendb.
package sirendb

type Row struct {
	Seq int
	Job string
}

type Snapshot struct {
	rows  []Row
	byJob map[string][]Row
}

func New(rows []Row) *Snapshot {
	byJob := make(map[string][]Row)
	for _, r := range rows {
		byJob[r.Job] = append(byJob[r.Job], r)
	}
	return &Snapshot{rows: rows, byJob: byJob}
}

// Jobs returns the shared row slice — callers must not modify it.
func (s *Snapshot) Jobs() []Row { return s.rows }

// ByJob returns the shared per-job map — callers must not modify it.
func (s *Snapshot) ByJob() map[string][]Row { return s.byJob }

// MergedSnapshot is another name for Snapshot, as in the real store.
type MergedSnapshot = Snapshot
