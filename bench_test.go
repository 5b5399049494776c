// Benchmarks of the collection path: the campaign over a lossy transport,
// and the transport and chunk-size ablations. The paper's tables are pinned
// by TestEvaluationReportRenders and recognition by
// TestRecognitionOnVariantSweep, not printed here.
package siren_test

import (
	"fmt"
	"testing"

	"siren/internal/campaign"
	"siren/internal/core"
	"siren/internal/wire"
)

// BenchmarkUDPPipelineLoss reproduces the "~0.02% of jobs with missing
// fields" observation: a campaign over a lossy transport, reporting the
// affected-jobs fraction as a metric.
func BenchmarkUDPPipelineLoss(b *testing.B) {
	b.ReportAllocs()
	var lastFrac float64
	for i := 0; i < b.N; i++ {
		p, err := core.NewPipeline(core.Options{LossRate: 0.0001, LossSeed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.RunCampaign(campaign.Config{Scale: 0.005, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
		_, stats, err := p.Analyze()
		if err != nil {
			b.Fatal(err)
		}
		p.Close()
		lastFrac = float64(stats.JobsWithMissing) / float64(max(1, stats.Jobs))
	}
	b.ReportMetric(lastFrac*100, "%jobs-missing-fields")
}

// --------------------------------------------------------------------------
// Ablations

func BenchmarkAblationTransports(b *testing.B) {
	msg := wire.Message{Header: wire.Header{JobID: "1", StepID: "0", PID: 1, Hash: "ab",
		Host: "n", Time: 1, Layer: wire.LayerSelf, Type: wire.TypeObjects, Total: 1},
		Content: []byte("/lib64/libc.so.6\n/lib64/libm.so.6\n")}
	datagram := wire.Encode(msg)

	b.Run("channel", func(b *testing.B) {
		tr := wire.NewChanTransport(1 << 16)
		go func() {
			for range tr.C() {
			}
		}()
		b.SetBytes(int64(len(datagram)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := tr.Send(datagram); err != nil {
				b.Fatal(err)
			}
		}
		tr.Close()
	})
	b.Run("udp-loopback", func(b *testing.B) {
		pc, err := listenUDP()
		if err != nil {
			b.Fatal(err)
		}
		defer pc.close()
		tr, err := wire.DialUDP(pc.addr)
		if err != nil {
			b.Fatal(err)
		}
		defer tr.Close()
		b.SetBytes(int64(len(datagram)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = tr.Send(datagram) // fire and forget
		}
	})
}

func BenchmarkAblationChunkSizes(b *testing.B) {
	h := wire.Header{JobID: "1", StepID: "0", PID: 1, Hash: "ab", Host: "n",
		Time: 1, Layer: wire.LayerSelf, Type: wire.TypeMaps}
	content := make([]byte, 64<<10)
	for i := range content {
		content[i] = byte('a' + i%26)
	}
	for _, size := range []int{512, 1400, 4096, 16384} {
		b.Run(fmt.Sprintf("max=%d", size), func(b *testing.B) {
			b.SetBytes(int64(len(content)))
			b.ReportAllocs()
			var chunks int
			var buf, joined []byte
			var rows []wire.Scanned
			for i := 0; i < b.N; i++ {
				msgs := wire.Chunk(h, content, size)
				chunks = len(msgs)
				buf, rows = buf[:0], rows[:0]
				for j := range msgs {
					lo := len(buf)
					var f wire.Fields
					buf, f = wire.AppendEncodeFields(buf, &msgs[j])
					rows = append(rows, wire.Scanned{Datagram: buf[lo:], Fields: f})
				}
				lo := 0
				for j := range rows { // buf may have moved while it grew
					rows[j].Datagram = buf[lo : lo+len(rows[j].Datagram)]
					lo += len(rows[j].Datagram)
				}
				recs := wire.Reassemble(rows)
				if len(recs) != 1 || !recs[0].Complete {
					b.Fatal("reassembly failed")
				}
				joined = recs[0].AppendContent(joined[:0])
			}
			b.ReportMetric(float64(chunks), "chunks")
		})
	}
}
