package report

import (
	"reflect"
	"testing"

	"siren/internal/analysis"
	"siren/internal/campaign"
	"siren/internal/postprocess"
	"siren/internal/sirendb"
	"siren/internal/wire"
)

// storeTransport inserts every datagram a campaign sends into a store.
type storeTransport struct{ db *sirendb.DB }

func (s storeTransport) Send(d []byte) error {
	m, err := wire.Parse(d)
	if err != nil {
		return err
	}
	return s.db.Insert(m)
}

func (storeTransport) Close() error { return nil }

// TestBuildJSONConcurrentMatchesSerial: the report BuildJSON assembles with
// its tables computed concurrently equals the one whose tables are computed
// one by one, over a small simulated campaign in which every table is
// populated. Under -race it also shows the tables share nothing they write.
func TestBuildJSONConcurrentMatchesSerial(t *testing.T) {
	db, err := sirendb.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := campaign.Run(campaign.Config{Scale: 0.002, Seed: 9, Workers: 1, Transport: storeTransport{db}}); err != nil {
		t.Fatal(err)
	}
	data, stats := analysis.ConsolidateDataset(db.Snapshot(), postprocess.StreamOptions{})

	serial := &JSONReport{Dataset: BuildJSON(data, stats).Dataset}
	for _, table := range jsonTables(data, serial) {
		table()
	}
	if serial.Similarity == nil || len(serial.Users) == 0 || len(serial.SystemExecutables) == 0 ||
		len(serial.Labels) == 0 || len(serial.Compilers) == 0 || len(serial.PythonInterpreters) == 0 ||
		len(serial.DerivedLibraries) == 0 || len(serial.PythonPackages) == 0 || serial.SystemExecutableN == 0 {
		t.Fatalf("the campaign leaves a table empty: %+v", serial)
	}
	for i := 0; i < 4; i++ {
		if got := BuildJSON(data, stats); !reflect.DeepEqual(got, serial) {
			t.Fatalf("BuildJSON diverges from the tables computed one by one:\n got  %+v\n want %+v", got, serial)
		}
	}
}
