// Prometheus text-format exposition (version 0.0.4): the format every
// scraper understands and a human can read with curl. Families are emitted
// in name order, children in registration order, so the output is
// deterministic and golden-testable.

package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
)

// WritePrometheus renders every registered family in the Prometheus text
// exposition format. Histograms emit the standard cumulative
// _bucket{le=...} / _sum / _count triple; empty buckets are skipped (the
// format permits sparse buckets, and 65 log₂ buckets would otherwise bury
// the signal), with the mandatory le="+Inf" bucket always present.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, f := range r.sortedFamilies() {
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		for _, e := range f.load() {
			switch {
			case e.counter != nil:
				fmt.Fprintf(bw, "%s%s %d\n", f.name, renderLabels(e.labels, "", 0), e.counter.Value())
			case e.gauge != nil:
				fmt.Fprintf(bw, "%s%s %d\n", f.name, renderLabels(e.labels, "", 0), e.gauge.Value())
			case e.gfunc != nil:
				fmt.Fprintf(bw, "%s%s %d\n", f.name, renderLabels(e.labels, "", 0), e.gfunc())
			case e.hist != nil:
				writeHistogram(bw, f.name, e)
			}
		}
	}
	return bw.Flush()
}

// writeHistogram emits the cumulative bucket series for one labeled child.
func writeHistogram(w io.Writer, name string, e *entry) {
	h := e.hist
	var cum uint64
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		cum += n
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, renderLabels(e.labels, "le", float64(bucketUpper(i))), cum)
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, renderLabels(e.labels, "le", math.Inf(1)), cum)
	fmt.Fprintf(w, "%s_sum%s %d\n", name, renderLabels(e.labels, "", 0), h.sum.Load())
	fmt.Fprintf(w, "%s_count%s %d\n", name, renderLabels(e.labels, "", 0), cum)
}

// renderLabels renders {k="v",...}, appending an le label when leKey is
// non-empty. Returns "" for an unlabeled metric.
func renderLabels(labels []Label, leKey string, le float64) string {
	if len(labels) == 0 && leKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	if leKey != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(leKey)
		b.WriteString(`="`)
		if math.IsInf(le, 1) {
			b.WriteString("+Inf")
		} else {
			// Bucket bounds are exact small-ish integers; %g keeps them
			// readable (no trailing zeros) and parseable as floats.
			fmt.Fprintf(&b, "%g", le)
		}
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabel(v string) string { return labelEscaper.Replace(v) }

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeHelp(v string) string { return helpEscaper.Replace(v) }

// Handler returns the GET /metrics handler: the registry rendered in the
// Prometheus text format. It is a plain http.Handler for callers to mount
// on their own mux — obs never touches http.DefaultServeMux.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		// Error means the client went away mid-write; nothing to do.
		_ = r.WritePrometheus(w)
	})
}
