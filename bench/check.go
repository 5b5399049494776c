package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"

	"siren/internal/report"
	"siren/internal/server"
	"siren/internal/sirendb"
)

// Output checks. A failed check is a failed operation and a non-zero exit,
// never a time reported as if nothing had happened.

// checkStore reopens the closed store read-only and requires exactly the
// rows the query API reported (or the generator pre-loaded) and no record
// skipped as corrupt.
func checkStore(r *result, store string, wantRows int) error {
	db, err := sirendb.OpenOptions(store, sirendb.Options{ReadOnly: true})
	if err != nil {
		return fmt.Errorf("reopen %s read-only: %w", store, err)
	}
	defer func() { _ = db.Close() }() // read-only: nothing to flush
	r.check(db.Count() == wantRows, "store holds %d rows after shutdown, want %d", db.Count(), wantRows)
	r.check(db.CorruptRecords() == 0, "store skipped %d corrupt records on reopen", db.CorruptRecords())
	return nil
}

// checkReports requires every siren-analyze -json output of a run to be
// byte-identical, and the report to count the jobs and messages the
// generator offered. It returns the decoded report.
func checkReports(r *result, outputs [][]byte, wantJobs, wantMessages int) (*report.JSONReport, error) {
	for i := 1; i < len(outputs); i++ {
		r.check(bytes.Equal(outputs[0], outputs[i]), "siren-analyze output %d differs from output 0", i)
	}
	var rep report.JSONReport
	if err := json.Unmarshal(outputs[0], &rep); err != nil {
		return nil, fmt.Errorf("siren-analyze -json output: %w", err)
	}
	r.check(rep.Dataset.Jobs == wantJobs, "report counts %d jobs, generator offered %d", rep.Dataset.Jobs, wantJobs)
	r.check(rep.Dataset.Messages == wantMessages, "report counts %d messages, generator offered %d", rep.Dataset.Messages, wantMessages)
	return &rep, nil
}

// checkServedReport requires the report the restarted system served to
// equal, after decoding, the one siren-analyze printed.
func checkServedReport(r *result, served server.ReportResponse, analyzed *report.JSONReport) {
	r.check(reflect.DeepEqual(served.Report, analyzed), "/api/v1/report after the restart differs from siren-analyze -json")
}
