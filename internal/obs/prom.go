package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WritePrometheus writes the registry's metrics in the Prometheus text
// exposition format (version 0.0.4): counters and gauges as single
// samples, histograms as cumulative le-labeled bucket series plus _sum
// and _count, and the interpolated p50/p95/p99 estimates as companion
// gauges (<name>_p50 ...) so SLO dashboards need no PromQL quantile math.
// Metric names are sanitized (dots become underscores).
func (r *Registry) WritePrometheus(w io.Writer) error {
	s := r.Snapshot()
	var sb strings.Builder
	for _, c := range s.Counters {
		n := promName(c.Name)
		fmt.Fprintf(&sb, "# TYPE %s counter\n%s %d\n", n, n, c.Value)
	}
	for _, g := range s.Gauges {
		n := promName(g.Name)
		fmt.Fprintf(&sb, "# TYPE %s gauge\n%s %d\n", n, n, g.Value)
	}
	for _, h := range s.Histograms {
		n := promName(h.Name)
		fmt.Fprintf(&sb, "# TYPE %s histogram\n", n)
		cum := int64(0)
		for i, bound := range h.Bounds {
			cum += h.Counts[i]
			fmt.Fprintf(&sb, "%s_bucket{le=\"%d\"} %d\n", n, bound, cum)
		}
		fmt.Fprintf(&sb, "%s_bucket{le=\"+Inf\"} %d\n", n, h.Count)
		fmt.Fprintf(&sb, "%s_sum %d\n", n, h.Sum)
		fmt.Fprintf(&sb, "%s_count %d\n", n, h.Count)
		// The grammar allows one TYPE per name, so the quantile estimates
		// go out as companion gauges rather than extra histogram series.
		for _, pq := range [...]struct {
			suffix string
			v      float64
		}{{"p50", h.P50}, {"p95", h.P95}, {"p99", h.P99}} {
			fmt.Fprintf(&sb, "# TYPE %s_%s gauge\n%s_%s %s\n",
				n, pq.suffix, n, pq.suffix, strconv.FormatFloat(pq.v, 'g', -1, 64))
		}
	}
	if _, err := io.WriteString(w, sb.String()); err != nil {
		return fmt.Errorf("obs: writing prometheus exposition: %w", err)
	}
	return nil
}

// promName maps a registry metric name onto the Prometheus grammar:
// [a-zA-Z_:][a-zA-Z0-9_:]*, with every other rune replaced by '_'.
func promName(name string) string {
	var sb strings.Builder
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if ok {
			sb.WriteRune(r)
		} else {
			sb.WriteByte('_')
		}
	}
	return sb.String()
}
