// Metric families and their Prometheus text exposition.
//
// The engine keeps its metrics in its own vector-indexed registry (see
// obs.go); this file is the bridge to standard scraping infrastructure.
// It renders the exposition format directly — counters, gauges, and the
// already-bucketed latency histograms — so the debug server's /metrics
// endpoint needs no client library.
package obs

import (
	"fmt"
	"io"
	"reflect"
	"strconv"
	"strings"
)

// promNamespace prefixes every exposed metric family.
const promNamespace = "dmx"

// Family is one exposed metric family: what /metrics prints under one
// HELP/TYPE header and sys.stat_metrics serves as rows.
type Family struct {
	Name    string // with the dmx_ namespace
	Kind    string // counter, gauge or histogram
	Help    string
	Samples []Sample
}

// Sample is one exposition line of a family.
type Sample struct {
	Name   string // the family's, plus _bucket, _sum or _count under a histogram
	Labels string // rendered label body (`ext="heap",op="insert"`) or empty
	Value  float64
}

// Families walks tagged metric structs — a Snapshot, the tracer's Stats —
// and returns one family per distinct metric tag (see Snapshot for the
// grammar), in exposition order. It is the only reader of those tags, so
// every surface built on it exposes a newly declared field unasked.
func Families(metrics ...any) []Family {
	var fs families
	for _, m := range metrics {
		fs.walk(reflect.ValueOf(m))
	}
	return fs
}

// WritePrometheus renders fams in the Prometheus text exposition format
// (version 0.0.4): HELP/TYPE headers per family, cumulative `le` buckets
// in seconds for histograms, and per-extension metrics as `ext`/`op`
// labelled series. The first write error is returned.
func WritePrometheus(w io.Writer, fams []Family) error {
	for _, f := range fams {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.Name, f.Help, f.Name, f.Kind); err != nil {
			return err
		}
		for _, s := range f.Samples {
			labels := s.Labels
			if labels != "" {
				labels = "{" + labels + "}"
			}
			if _, err := fmt.Fprintf(w, "%s%s %s\n", s.Name, labels, formatFloat(s.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}

type families []Family

// add opens a new family and returns it for its samples.
func (fs *families) add(name, kind, help string) *Family {
	*fs = append(*fs, Family{Name: name, Kind: kind, Help: help})
	return &(*fs)[len(*fs)-1]
}

// walk appends the families of one tagged struct: a tagged field is a
// scalar, a histogram or a dispatch vector; an untagged struct field is a
// group of more fields.
func (fs *families) walk(v reflect.Value) {
	t := v.Type()
	for _, i := range expositionOrder(t) {
		f, fv := t.Field(i), v.Field(i)
		tag, ok := f.Tag.Lookup("metric")
		if !ok {
			if fv.Kind() == reflect.Struct {
				fs.walk(fv)
			}
			continue
		}
		name, label, _ := strings.Cut(tag, " ")
		name = promNamespace + "_" + name
		if k, val, ok := strings.Cut(label, "="); ok {
			label = k + `="` + escapeLabel(val) + `"`
		}
		help := f.Tag.Get("help")
		var value float64
		switch m := fv.Interface().(type) {
		case []ExtSnapshot:
			_, vetoes := f.Tag.Lookup("vetoes")
			fs.vector(name, help, m, vetoes)
			continue
		case HistogramSnapshot:
			fs.add(name, "histogram", help).histogram(label, m)
			continue
		case int64:
			value = float64(m)
		case float64:
			value = m
		default:
			panic(fmt.Sprintf("obs: metric tag on %s.%s, a %s", t.Name(), f.Name, f.Type))
		}
		// A scalar; fields sharing a name extend the family the first opened.
		if n := len(*fs); n == 0 || (*fs)[n-1].Name != name {
			kind := "gauge"
			if strings.HasSuffix(name, "_total") {
				kind = "counter"
			}
			fs.add(name, kind, help)
		}
		fam := &(*fs)[len(*fs)-1]
		fam.Samples = append(fam.Samples, Sample{name, label, value})
	}
}

// expositionOrder returns t's field indices in declaration order, except
// that a field tagged after:"X" directly follows field X.
func expositionOrder(t reflect.Type) []int {
	var order []int
	for i := 0; i < t.NumField(); i++ {
		if _, moved := t.Field(i).Tag.Lookup("after"); !moved {
			order = append(order, i)
		}
		for j := 0; j < t.NumField(); j++ {
			if t.Field(j).Tag.Get("after") == t.Field(i).Name {
				order = append(order, j)
			}
		}
	}
	return order
}

// vector appends the per-extension dispatch families of one procedure
// vector: call/error counters and latency histograms labelled by
// extension and operation, plus veto counters for attachments.
func (fs *families) vector(name, what string, exts []ExtSnapshot, vetoes bool) {
	cells := func(suffix, kind, help string, sample func(f *Family, labels string, op OpSnapshot)) {
		f := fs.add(name+suffix, kind, what+" "+help)
		for _, e := range exts {
			for _, op := range e.Ops {
				sample(f, extLabels(e)+`,op="`+escapeLabel(op.Op)+`"`, op)
			}
		}
	}
	cells("_ops_total", "counter", "calls", func(f *Family, labels string, op OpSnapshot) {
		f.Samples = append(f.Samples, Sample{f.Name, labels, float64(op.Count)})
	})
	cells("_op_errors_total", "counter", "call errors", func(f *Family, labels string, op OpSnapshot) {
		f.Samples = append(f.Samples, Sample{f.Name, labels, float64(op.Errors)})
	})
	cells("_op_latency_seconds", "histogram", "call latency", func(f *Family, labels string, op OpSnapshot) {
		f.histogram(labels, op.Latency)
	})
	if vetoes {
		f := fs.add(name+"_vetoes_total", "counter", what+" modifications refused by veto")
		for _, e := range exts {
			if e.Vetoes > 0 {
				f.Samples = append(f.Samples, Sample{f.Name, extLabels(e), float64(e.Vetoes)})
			}
		}
	}
}

// histogram appends the samples of one histogram label set: cumulative
// le buckets in seconds, the +Inf bucket, and _sum/_count. The +Inf
// bucket and _count are both taken from the buckets' own cumulative total
// so the exposition is self-consistent even when the snapshot raced
// concurrent observers. One family may hold many label sets.
func (f *Family) histogram(labels string, h HistogramSnapshot) {
	pre := ""
	if labels != "" {
		pre = labels + ","
	}
	var cum int64
	for i := 0; i < NumBuckets-1; i++ {
		cum += h.Buckets[i]
		f.Samples = append(f.Samples, Sample{f.Name + "_bucket", pre + `le="` + formatFloat(BucketUpper(i).Seconds()) + `"`, float64(cum)})
	}
	cum += h.Buckets[NumBuckets-1]
	f.Samples = append(f.Samples,
		Sample{f.Name + "_bucket", pre + `le="+Inf"`, float64(cum)},
		Sample{f.Name + "_sum", labels, float64(h.SumNanos) / 1e9},
		Sample{f.Name + "_count", labels, float64(cum)})
}

// extLabels renders the identifying labels of one extension entry. The
// numeric procedure-vector identifier is always present; the registered
// name is added when the snapshot carries it.
func extLabels(e ExtSnapshot) string {
	s := `id="` + strconv.Itoa(e.ID) + `"`
	if e.Name != "" {
		s += `,ext="` + escapeLabel(e.Name) + `"`
	}
	return s
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string { return labelEscaper.Replace(v) }

// formatFloat renders a sample value the way Prometheus expects: integers
// without an exponent, everything else in shortest-round-trip form.
func formatFloat(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
