package obs

import (
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/ golden files from this tree's output")

// fillDistinct sets every numeric and string leaf under v to a distinct
// non-zero value, in declaration order: extension slices get two entries
// of three operations each, histogram buckets one value per bucket.
func fillDistinct(v reflect.Value, next *int64) {
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		*next++
		v.SetInt(*next)
	case reflect.Float64:
		*next++
		v.SetFloat(float64(*next) + 0.5)
	case reflect.String:
		*next++
		v.SetString("s" + strconv.FormatInt(*next, 10))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillDistinct(v.Field(i), next)
		}
	case reflect.Slice:
		n := 2
		if v.Type().Elem() == reflect.TypeOf(OpSnapshot{}) {
			n = 3
		}
		v.Set(reflect.MakeSlice(v.Type(), n, n))
		fallthrough
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillDistinct(v.Index(i), next)
		}
	default:
		panic("fillDistinct: unhandled kind " + v.Kind().String())
	}
}

// fullSnapshot is the fixed, fully populated snapshot behind the golden
// files: every field distinct and non-zero, real extension and operation
// names (one of them needing label escaping).
func fullSnapshot() Snapshot {
	var s Snapshot
	var next int64
	fillDistinct(reflect.ValueOf(&s).Elem(), &next)
	for i, exts := range [][]ExtSnapshot{s.SM, s.Att} {
		for j := range exts {
			exts[j].Name = [][]string{{"heap", "memory"}, {"btree", `ref"int\idx`}}[i][j]
			for k := range exts[j].Ops {
				exts[j].Ops[k].Op = []Op{OpInsert, OpFetch, OpScan}[k].String()
			}
		}
	}
	return s
}

// golden compares got with testdata/name (or rewrites the file under
// -update). The committed files were written by the commit before the
// tag-driven walker replaced prom.go's hand-paired families and
// Engine.Snapshot's copy list.
func golden(t *testing.T, name, got string) {
	t.Helper()
	path := "testdata/" + name
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s differs from the golden file; first difference:\n%s", name, firstDiff(string(want), got))
	}
}

func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return "line " + strconv.Itoa(i+1) + "\n want: " + wl + "\n  got: " + gl
		}
	}
	return "(none)"
}

// TestGoldenPrometheus holds the exposition to the bytes the hand-paired
// family list produced. That list had no family for LSM.BloomSkipRatio;
// the walker exposes every tagged leaf, so the one family it adds is taken
// out before comparing (TestEveryMetricIsExposed is what requires it).
func TestGoldenPrometheus(t *testing.T) {
	var fams []Family
	for _, f := range Families(fullSnapshot()) {
		if f.Name != "dmx_lsm_bloom_skip_ratio" {
			fams = append(fams, f)
		}
	}
	var b strings.Builder
	if err := WritePrometheus(&b, fams); err != nil {
		t.Fatal(err)
	}
	validatePrometheus(t, b.String())
	golden(t, "snapshot.prom", b.String())
}

func TestGoldenJSON(t *testing.T) {
	raw, err := json.MarshalIndent(fullSnapshot(), "", " ")
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "snapshot.json", string(raw)+"\n")
}

// smVetoes matches the one leaf that is never a metric: ExtSnapshot serves
// both vectors, and only attachments veto.
var smVetoes = regexp.MustCompile(`^Snapshot\.SM.*\.Vetoes$`)

// TestEveryMetricIsExposed is what keeps "declared once" true for the next
// subsystem: every numeric leaf of Snapshot, given a distinct value, must
// come back out of Families — the one list /metrics prints and
// sys.stat_metrics serves — under a family that has HELP and TYPE. A
// snapshot field added without a metric tag fails here.
func TestEveryMetricIsExposed(t *testing.T) {
	s := fullSnapshot()
	exposed := map[string]bool{}
	for _, f := range Families(s) {
		if f.Help == "" || f.Kind == "" || !strings.HasPrefix(f.Name, "dmx_") {
			t.Errorf("family %+v lacks a name, HELP or TYPE", f)
		}
		for _, smp := range f.Samples {
			// Bucket and count samples are running sums, not leaves.
			if !strings.HasSuffix(smp.Name, "_bucket") && !strings.HasSuffix(smp.Name, "_count") {
				exposed[formatFloat(smp.Value)] = true
			}
			for _, l := range strings.Split(smp.Labels, ",") {
				exposed[l] = true
			}
		}
	}
	var check func(path string, v reflect.Value)
	check = func(path string, v reflect.Value) {
		want := ""
		switch m := v.Interface().(type) {
		case HistogramSnapshot:
			want = formatFloat(float64(m.SumNanos) / 1e9)
		case int64:
			want = formatFloat(float64(m))
		case float64:
			want = formatFloat(m)
		case int: // an extension's procedure-vector identifier
			want = `id="` + strconv.Itoa(m) + `"`
		case string:
			return
		default:
			for i := 0; v.Kind() == reflect.Struct && i < v.NumField(); i++ {
				check(path+"."+v.Type().Field(i).Name, v.Field(i))
			}
			for i := 0; v.Kind() == reflect.Slice && i < v.Len(); i++ {
				check(path+"["+strconv.Itoa(i)+"]", v.Index(i))
			}
			return
		}
		if !exposed[want] && !smVetoes.MatchString(path) {
			t.Errorf("%s = %s is in no metric family", path, want)
		}
	}
	check("Snapshot", reflect.ValueOf(s))
}

// TestSnapshotReadsEveryLiveField is the other half: every live Counter,
// Gauge and Histogram of the Engine, once recorded into, shows in the
// snapshot — so a live field without its snapshot field fails, as does a
// snapshot field that reads nothing.
func TestSnapshotReadsEveryLiveField(t *testing.T) {
	e := NewEngine()
	var record func(v reflect.Value)
	record = func(v reflect.Value) {
		switch m := v.Addr().Interface().(type) {
		case *Counter:
			m.Add(3)
		case *Gauge:
			m.Add(5)
		case *Histogram:
			m.Observe(time.Microsecond)
		case *Vector:
			m.Observe(1, OpInsert, time.Microsecond, true)
		case *[MaxExt]Counter:
			m[1].Inc()
		default:
			for i := 0; i < v.NumField(); i++ {
				record(v.Field(i))
			}
		}
	}
	record(reflect.ValueOf(e).Elem())
	before := e.Snapshot()

	var zeros func(path string, v reflect.Value)
	zeros = func(path string, v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			if h, ok := v.Interface().(HistogramSnapshot); ok {
				if h.Count == 0 {
					t.Errorf("%s recorded nothing", path)
				}
				return
			}
			for i := 0; i < v.NumField(); i++ {
				zeros(path+"."+v.Type().Field(i).Name, v.Field(i))
			}
		case reflect.Slice:
			if v.Len() == 0 {
				t.Errorf("%s is empty", path)
			}
			for i := 0; i < v.Len(); i++ {
				zeros(path, v.Index(i))
			}
		case reflect.String:
		default:
			if v.IsZero() && !smVetoes.MatchString(path) {
				t.Errorf("%s is zero after every live field was recorded into", path)
			}
		}
	}
	zeros("Snapshot", reflect.ValueOf(before))

	// Each live field moves some snapshot field: record into one at a
	// time and require the snapshot to change.
	var each func(path string, v reflect.Value)
	each = func(path string, v reflect.Value) {
		switch v.Addr().Interface().(type) {
		case *Counter, *Gauge, *Histogram, *Vector, *[MaxExt]Counter:
			prev := e.Snapshot()
			record(v)
			if reflect.DeepEqual(prev, e.Snapshot()) {
				t.Errorf("live field %s has no snapshot field", path)
			}
		default:
			for i := 0; i < v.NumField(); i++ {
				each(path+"."+v.Type().Field(i).Name, v.Field(i))
			}
		}
	}
	each("Engine", reflect.ValueOf(e).Elem())
}
