package main

import (
	"cmp"
	"net"
	"runtime"
	"time"

	"siren/internal/analysis"
	"siren/internal/obs"
	"siren/internal/postprocess"
	"siren/internal/receiver"
	"siren/internal/report"
	"siren/internal/sirendb"
	"siren/internal/ssdeep"
	"siren/internal/wire"
)

// The per-layer metrics of a traced run come from two places: the spans the
// benchmark's wrappers recorded while the in-process assembly served the
// window, and — for the layers no wrapper can see into — a standalone,
// single-goroutine replay of each layer over the run's own data.

// layerMetrics fills r with every per-layer metric this workload exercises.
func (e *env) layerMetrics(r *result) error {
	st := e.st
	dgrams := e.layerDatagrams()
	e.wireLayer(r, dgrams)
	if err := udpLayer(r, dgrams); err != nil {
		return err
	}
	receiverReplay(r, dgrams)
	e.windowSpans(r)
	records, stats, err := e.storeLayers(r)
	if err != nil {
		return err
	}
	e.analysisLayers(r, dgrams, records, stats)

	if st.procs > 0 {
		r.set("collector.us_per_process", float64(st.captureDur.Microseconds())/float64(st.procs), "us", st.procs)
		r.set("campaign.dgrams_per_process", float64(st.captured)/float64(st.procs), "count", st.procs)
	}
	r.set("go.gc_cycles", float64(e.rt.gcCycles), "count", 0)
	r.set("go.gc_pause_ms_total", e.rt.gcPauseMS, "ms", 0)
	r.set("go.heap_peak_mb", e.rt.heapPeakMB, "MB", 0)
	r.set("go.alloc_mb_total", e.rt.allocMBTotal, "MB", 0)

	// What a user saw, as the traced run observed it: the difference to the
	// untraced run is tracing plus in-process overhead.
	for _, name := range []string{"queryable_lag_p50_s", "queryable_lag_p95_s", "identify_p50_ms",
		"identify_p95_ms", "ingest_loss_frac", "identify_fail_frac"} {
		if m, ok := r.Metrics[name]; ok {
			r.set("loadgen."+name, m.Value, m.Unit, m.Samples)
		}
	}
	return nil
}

// layerDatagrams is the datagram sequence the replays run over: what the
// window offered, or the rendered catalogue where nothing crossed UDP.
func (e *env) layerDatagrams() [][]byte {
	if e.st.tr != nil {
		return e.st.tr.dgrams
	}
	return e.st.cat.traffic().dgrams
}

func (e *env) wireLayer(r *result, dgrams [][]byte) {
	n := len(dgrams)
	msgs := make([]wire.Message, 0, n)
	var bytes int64
	malformed := 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for _, d := range dgrams {
		m, err := wire.Parse(d)
		if err != nil {
			malformed++
			continue
		}
		msgs = append(msgs, m)
	}
	parse := time.Since(start)
	runtime.ReadMemStats(&after)
	start = time.Now()
	for _, m := range msgs {
		bytes += int64(len(wire.Encode(m)))
	}
	encode := time.Since(start)
	r.set("wire.parse_ns_per_dgram", float64(parse.Nanoseconds())/float64(n), "ns", n)
	// msgs is pre-sized, so the deltas are Parse's own allocations.
	r.set("wire.parse_allocs_per_dgram", float64(after.Mallocs-before.Mallocs)/float64(n), "count", n)
	r.set("wire.parse_alloc_bytes_per_dgram", float64(after.TotalAlloc-before.TotalAlloc)/float64(n), "B", n)
	r.set("wire.encode_ns_per_dgram", float64(encode.Nanoseconds())/float64(max(len(msgs), 1)), "ns", len(msgs))
	r.set("wire.dgram_bytes_mean", float64(bytes)/float64(max(len(msgs), 1)), "B", len(msgs))
	r.set("wire.malformed", float64(malformed), "count", n)
}

// udpLayer is the stdlib reference line for the socket read: the
// benchmark's own loopback ReadFrom loop over the same datagrams, written
// in bursts small enough for the socket buffer and then read back, so only
// the reads are timed.
func udpLayer(r *result, dgrams [][]byte) error {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer func() { _ = pc.Close() }()
	_ = pc.(*net.UDPConn).SetReadBuffer(4 << 20) // best effort, as the receiver asks
	conn, err := net.Dial("udp", pc.LocalAddr().String())
	if err != nil {
		return err
	}
	defer func() { _ = conn.Close() }()
	const burst = 1024
	scratch := make([]byte, 64<<10)
	var reading time.Duration
	reads := 0
	for lo := 0; lo < len(dgrams); lo += burst {
		hi := min(lo+burst, len(dgrams))
		for _, d := range dgrams[lo:hi] {
			if _, err := conn.Write(d); err != nil {
				return err
			}
		}
		if err := pc.SetReadDeadline(time.Now().Add(time.Second)); err != nil {
			return err
		}
		start := time.Now()
		for i := lo; i < hi; i++ {
			if _, _, err := pc.ReadFrom(scratch); err != nil {
				break // the kernel dropped part of the burst: time what arrived
			}
			reads++
		}
		reading += time.Since(start)
	}
	r.set("udp.read_ns_per_dgram", float64(reading.Nanoseconds())/float64(max(reads, 1)), "ns", reads)
	return nil
}

// nullStore accepts every batch and keeps nothing.
type nullStore struct{ shards int }

func (s nullStore) StoreShards() int                             { return s.shards }
func (nullStore) InsertBatch(ms []wire.Message) error            { return nil }
func (nullStore) InsertShard(shard int, ms []wire.Message) error { return nil }

// receiverReplay feeds the datagrams from a channel source through a
// receiver into a null store: copy, dispatch, queue, parse and batch, with
// no socket before it and no storage after it.
func receiverReplay(r *result, dgrams [][]byte) {
	shards := receiver.Options{}.ResolvedWriters()
	rcv := receiver.New(nullStore{shards: shards}, receiver.Options{Metrics: obs.NewRegistry("bench-replay")})
	src := make(chan []byte, 1024) // small enough that the feeder, not a backlog, paces the receiver
	start := time.Now()
	rcv.AttachChannel(src)
	for _, d := range dgrams {
		src <- d
	}
	close(src)
	_ = rcv.Close() // channel mode: there is no socket whose close could fail
	r.set("receiver.ingest_ns_per_dgram", float64(time.Since(start).Nanoseconds())/float64(len(dgrams)), "ns", len(dgrams))
}

// between keeps the spans that started in [from, to).
func between(spans []span, epoch, from, to time.Time) []span {
	lo, hi := from.Sub(epoch).Nanoseconds(), to.Sub(epoch).Nanoseconds()
	var out []span
	for _, s := range spans {
		if s.Start >= lo && s.Start < hi {
			out = append(out, s)
		}
	}
	return out
}

// windowSpans turns the spans of the timed window into layer metrics.
func (e *env) windowSpans(r *result) {
	window := func(name string) []span {
		return between(e.rec.named(name), e.rec.epoch, e.windowStart, e.windowEnd)
	}

	if inserts := window(spanInsert); len(inserts) > 0 {
		var rows int
		var total time.Duration
		for _, s := range inserts {
			rows += s.Count
			total += s.dur()
		}
		r.set("sirendb.insert_ns_per_row", float64(total.Nanoseconds())/float64(max(rows, 1)), "ns", rows)
		r.set("sirendb.insert_calls", float64(len(inserts)), "count", 0)
		r.set("sirendb.insert_stall_ms_max", maxOf(durations(inserts, time.Millisecond)), "ms", len(inserts))
		r.set("receiver.batch_rows_mean", float64(rows)/float64(len(inserts)), "count", len(inserts))
	}
	if seals := window(spanSeal); len(seals) > 0 {
		r.set("sirendb.seal_ms_p50", median(durations(seals, time.Millisecond)), "ms", len(seals))
		r.set("sirendb.seal_ms_max", maxOf(durations(seals, time.Millisecond)), "ms", len(seals))
		r.set("sirendb.seal_count", float64(len(seals)), "count", 0)
	}
	if snaps := window(spanSnapshot); len(snaps) > 0 {
		r.set("sirendb.snapshot_us_p50", median(durations(snaps, time.Microsecond)), "us", len(snaps))
	}
	if in := e.windowSUT; in != nil && in.rcv != nil {
		r.set("sirendb.sync_ms", float64(in.syncDur)/1e6, "ms", 1)
		r.set("receiver.queue_depth_max", float64(in.queueDepthMax), "count", 0)
		r.set("receiver.received", float64(in.final.Received), "count", 0)
		r.set("receiver.dropped", float64(in.final.Dropped), "count", 0)
		r.set("receiver.insert_lost", float64(in.final.InsertLost), "count", 0)
	}
	if in := cmp.Or(e.windowSUT, e.lastSUT); in != nil {
		e.catalogSpans(r, in.tc.refreshPasses())
	}

	identify := window(spanHandler + "identify")
	if len(identify) > 0 {
		us := durations(identify, time.Microsecond)
		r.set("server.identify_handler_us_p50", median(us), "us", len(us))
		r.set("server.identify_handler_us_p95", quantile(us, 0.95), "us", len(us))
		var bytes float64
		for _, s := range identify {
			bytes += float64(s.Count)
		}
		r.set("server.resp_bytes_mean", bytes/float64(len(identify)), "B", len(identify))
	}
	if jobs := window(spanHandler + "jobs"); len(jobs) > 0 {
		r.set("server.jobs_handler_us_p50", median(durations(jobs, time.Microsecond)), "us", len(jobs))
	}
	// Client time not spent in the handler: connection, HTTP framing, the
	// loopback, and this process's scheduler. Identify requests where the
	// workload has them, else whatever the poller asked.
	handlers := identify
	if len(handlers) == 0 {
		handlers = append(window(spanHandler+"stats"), window(spanHandler+"jobs")...)
	}
	clients := make(map[uint64]span)
	for _, name := range []string{"identify", "stats", "jobs"} {
		for _, s := range window(spanClient + name) {
			clients[s.ID] = s
		}
	}
	var overhead []float64
	for _, h := range handlers {
		if c, ok := clients[h.Parent]; ok {
			overhead = append(overhead, float64(c.dur()-h.dur())/1e3)
		}
	}
	if len(overhead) > 0 {
		r.set("http.client_overhead_us_p50", median(overhead), "us", len(overhead))
	}
}

// catalogSpans reports the refresh passes of the stage's system: the first
// is the cold full build, the rest ran on the benchmark's 1 s ticker.
func (e *env) catalogSpans(r *result, passes []refreshPass) {
	if len(passes) == 0 {
		return
	}
	r.set("catalog.refresh_first_ms", float64(passes[0].Elapsed)/1e6, "ms", 1)
	var ms, reconsolidated, carried []float64
	var newRows uint64
	var busy time.Duration
	count, noop := 0, 0
	for _, p := range passes[1:] {
		if p.at.Before(e.windowStart) || !p.at.Before(e.windowEnd) {
			continue
		}
		count++
		if p.NoOp {
			noop++
			continue
		}
		ms = append(ms, float64(p.Elapsed)/1e6)
		reconsolidated = append(reconsolidated, float64(p.Reconsolidated))
		carried = append(carried, float64(p.Carried))
		newRows += p.NewRows
		busy += p.Elapsed
	}
	r.set("catalog.refresh_count", float64(count), "count", 0)
	r.set("catalog.refresh_noop_count", float64(noop), "count", 0)
	if len(ms) > 0 {
		r.set("catalog.refresh_ms_p50", median(ms), "ms", len(ms))
		r.set("catalog.refresh_ms_max", maxOf(ms), "ms", len(ms))
		r.set("catalog.reconsolidated_jobs_mean", mean(reconsolidated), "count", len(ms))
		r.set("catalog.carried_jobs_mean", mean(carried), "count", len(ms))
		r.set("catalog.new_rows_per_refresh_ms", float64(newRows)/(float64(busy)/1e6), "1/ms", len(ms))
	}
}

// storeLayers reopens the closed store and replays the read path over it:
// open, a scan of every shard cursor, and streaming consolidation.
func (e *env) storeLayers(r *result) ([]*postprocess.ProcessRecord, postprocess.Stats, error) {
	du, err := storeDisk(e.st.store)
	if err != nil {
		return nil, postprocess.Stats{}, err
	}
	r.set("sirendb.wal_bytes", float64(du.walBytes), "B", 0)
	r.set("sirendb.run_bytes", float64(du.runBytes), "B", 0)
	r.set("sirendb.run_files", float64(du.runFiles), "count", 0)

	start := time.Now()
	db, err := sirendb.OpenOptions(e.st.store, sirendb.Options{ReadOnly: true})
	if err != nil {
		return nil, postprocess.Stats{}, err
	}
	defer func() { _ = db.Close() }() // read-only: nothing to flush
	r.set("sirendb.open_ms", float64(time.Since(start))/1e6, "ms", 1)

	snap := db.Snapshot()
	rows := 0
	start = time.Now()
	for i := 0; i < snap.Shards(); i++ {
		for c := snap.ShardCursor(i); ; rows++ {
			if _, _, ok := c.Next(); !ok {
				break
			}
		}
	}
	r.set("sirendb.scan_ns_per_row", float64(time.Since(start).Nanoseconds())/float64(max(rows, 1)), "ns", rows)

	start = time.Now()
	records, stats := postprocess.ConsolidateSnapshot(db.Snapshot(), postprocess.StreamOptions{Workers: 1})
	r.set("postprocess.consolidate_ns_per_row", float64(time.Since(start).Nanoseconds())/float64(max(stats.Messages, 1)), "ns", stats.Messages)
	r.set("postprocess.records", float64(len(records)), "count", 0)
	r.set("postprocess.reassembled", float64(stats.Records), "count", 0)
	return records, stats, nil
}

// analysisLayers replays the analysis side over the consolidated records:
// dataset and index builds, the search of the query pool by kind, ssdeep's
// primitives, and the report.
func (e *env) analysisLayers(r *result, dgrams [][]byte, records []*postprocess.ProcessRecord, stats postprocess.Stats) {
	start := time.Now()
	data := analysis.NewDataset(records)
	r.set("analysis.dataset_build_ms", float64(time.Since(start))/1e6, "ms", 1)
	start = time.Now()
	ix := analysis.NewFingerprintIndex(records)
	r.set("analysis.index_build_ms", float64(time.Since(start))/1e6, "ms", 1)
	r.set("analysis.fingerprints", float64(ix.Len()), "count", 0)

	start = time.Now()
	report.BuildJSON(data, stats)
	r.set("report.build_json_ms", float64(time.Since(start))/1e6, "ms", 1)

	if pool := e.st.pool; pool != nil {
		// The same queries the window issued, so the handler's time and the
		// search inside it are compared like with like.
		var all, rowsN []float64
		var byKind [numKinds][]float64
		for _, q := range pool[:min(e.ident.attempted, len(pool))] {
			start := time.Now()
			rows := ix.Search(q.digests, 10, ssdeep.BackendWeighted)
			us := float64(time.Since(start)) / 1e3
			all = append(all, us)
			byKind[q.kind] = append(byKind[q.kind], us)
			rowsN = append(rowsN, float64(len(rows)))
		}
		for k := queryKind(0); k < numKinds; k++ {
			if len(byKind[k]) > 0 {
				r.set("analysis.search_us_p50."+k.String(), median(byKind[k]), "us", len(byKind[k]))
			}
		}
		r.set("analysis.search_us_p95", quantile(all, 0.95), "us", len(all))
		r.set("analysis.search_rows_mean", mean(rowsN), "count", len(all))
		if m, ok := r.Metrics["server.identify_handler_us_p50"]; ok {
			// What the handler adds to the search: JSON decode and encode.
			r.set("server.identify_overhead_us_p50", m.Value-median(all), "us", m.Samples)
		}
	}

	// ssdeep: comparison over the catalogue's own FILE_H digests, hashing —
	// the collector-side cost — over the datagram bytes.
	var prepared []ssdeep.PreparedDigest
	for _, rec := range records {
		if p, err := ssdeep.ParsePrepared(rec.FileH); err == nil {
			prepared = append(prepared, p)
			if len(prepared) == 2048 {
				break
			}
		}
	}
	if len(prepared) > 1 {
		start := time.Now()
		for i := 1; i < len(prepared); i++ {
			ssdeep.ComparePrepared(prepared[i-1], prepared[i], ssdeep.BackendWeighted)
		}
		r.set("ssdeep.compare_ns", float64(time.Since(start).Nanoseconds())/float64(len(prepared)-1), "ns", len(prepared)-1)
	}
	var blob []byte
	for _, d := range dgrams {
		if blob = append(blob, d...); len(blob) >= 4<<20 {
			break
		}
	}
	start = time.Now()
	if _, err := ssdeep.Hash(blob); err == nil {
		r.set("ssdeep.hash_mb_per_s", float64(len(blob))/(1<<20)/time.Since(start).Seconds(), "MB/s", 1)
	}
}
