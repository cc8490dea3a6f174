package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"testing"

	"sortinghat/ftype"
	"sortinghat/internal/gateway"
	"sortinghat/internal/serve"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	samples := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // unsorted on purpose
		}
		return s
	}
	cases := []struct {
		n    int
		p    float64
		want float64 // 0 means the call must refuse
	}{
		{200, 95, 190},
		{199, 95, 0},
		{20, 50, 10},
		{19, 50, 0},
		{1000, 99, 990},
		{999, 99, 0},
	}
	for _, c := range cases {
		got, err := percentile(samples(c.n), c.p)
		if c.want == 0 {
			if err == nil {
				t.Errorf("p%v of %d samples = %v, want a refusal", c.p, c.n, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("p%v of %d samples = %v, %v; want %v", c.p, c.n, got, err, c.want)
		}
	}
	if _, err := percentile(samples(500), 100); err == nil {
		t.Error("p100 accepted")
	}
}

// answerTable is a three-column table whose reference answers are known.
func answerTable() *table {
	return &table{
		path:   pathJSON,
		names:  []string{"age", "city", "joined"},
		labels: []ftype.FeatureType{ftype.Numeric, ftype.Categorical, ftype.Datetime},
		want:   []ftype.FeatureType{ftype.Numeric, ftype.Categorical, ftype.Datetime},
	}
}

func goodAnswer(tb *table) gateway.BatchResponse {
	resp := gateway.BatchResponse{Shards: 2, ModelVersions: map[string]int{"v1": len(tb.names)}}
	for i, n := range tb.names {
		resp.Predictions = append(resp.Predictions, serve.InferPrediction{Name: n, Type: tb.want[i].String()})
	}
	return resp
}

// TestFakeDefectsCountAsFailed feeds count answers with each defect the
// oracle must catch, plus transport and status failures, and checks that
// each fails its request while a good answer is counted as answered.
func TestFakeDefectsCountAsFailed(t *testing.T) {
	tb := answerTable()
	defects := []struct {
		name  string
		spoil func(*gateway.BatchResponse)
	}{
		{"missing", func(r *gateway.BatchResponse) { r.Predictions = r.Predictions[:2] }},
		{"extra", func(r *gateway.BatchResponse) { r.Predictions = append(r.Predictions, r.Predictions[0]) }},
		{"reordered", func(r *gateway.BatchResponse) {
			r.Predictions[0], r.Predictions[1] = r.Predictions[1], r.Predictions[0]
		}},
		{"name", func(r *gateway.BatchResponse) { r.Predictions[2].Name = "joined_at" }},
		{"degraded", func(r *gateway.BatchResponse) { r.Predictions[1].Degraded = true }},
		{"type", func(r *gateway.BatchResponse) { r.Predictions[0].Type = ftype.Categorical.String() }},
	}
	wl := &workload{tables: []*table{tb}}
	var outs []outcome
	for _, d := range defects {
		name := d.name
		resp := goodAnswer(tb)
		d.spoil(&resp)
		body, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkAnswer(tb, &resp); err == nil {
			t.Errorf("%s: checkAnswer accepted the defect", name)
		}
		outs = append(outs, outcome{rid: name, status: http.StatusOK, body: body})
	}
	good, _ := json.Marshal(goodAnswer(tb))
	outs = append(outs,
		outcome{rid: "undecodable", status: http.StatusOK, body: []byte("{")},
		outcome{rid: "shed", status: http.StatusTooManyRequests, body: []byte(`{"error":"overloaded"}`)},
		outcome{rid: "timeout", status: http.StatusGatewayTimeout},
		outcome{rid: "transport", err: errors.New("connection reset")},
		outcome{rid: "good", status: http.StatusOK, body: good},
	)
	got := count(wl, outs)
	if got.attempted != len(outs) || got.answered != 1 || got.failed != len(outs)-1 {
		t.Fatalf("attempted %d answered %d failed %d; want %d, 1, %d", got.attempted, got.answered, got.failed, len(outs), len(outs)-1)
	}
	if got.defects != len(defects)+1 || got.status != 2 || got.transport != 1 {
		t.Errorf("defects %d status %d transport %d; want %d, 2, 1", got.defects, got.status, got.transport, len(defects)+1)
	}
	if got.columnsAnswered != 3 || got.labelCorrect != 3 {
		t.Errorf("columns answered %d, labels matched %d; want 3 and 3", got.columnsAnswered, got.labelCorrect)
	}
}

func TestSelfTimeAndUnaccounted(t *testing.T) {
	spans := link([]span{
		{ID: 0, Name: spanClient, RequestID: "w1-0", StartNS: 0, EndNS: 100},
		{ID: 1, Name: spanGateway, RequestID: "w1-0", StartNS: 10, EndNS: 90},
		{ID: 2, Name: spanForward, RequestID: "w1-0", Replica: "a", StartNS: 20, EndNS: 60},
		{ID: 3, Name: spanForward, RequestID: "w1-0", Replica: "b", StartNS: 30, EndNS: 70},
		{ID: 4, Name: spanServe, RequestID: "w1-0", Replica: "b", StartNS: 35, EndNS: 65},
		{ID: 5, Name: spanServe, RequestID: "w1-0", Replica: "a", StartNS: 25, EndNS: 55},
		{ID: 6, Name: spanServe, RequestID: "", Replica: "a", StartNS: 40, EndNS: 41}, // a health probe
	})
	parents := map[int]int{}
	for _, s := range spans {
		parents[s.ID] = s.Parent
	}
	want := map[int]int{0: -1, 1: 0, 2: 1, 3: 1, 4: 3, 5: 2, 6: -1}
	for id, p := range want {
		if parents[id] != p {
			t.Errorf("span %d has parent %d, want %d", id, parents[id], p)
		}
	}
	self := selfTimes(spans)
	// The gateway's two legs overlap on [30, 60]; together they cover
	// [20, 70], so the handler's self time is 80 - 50.
	for id, w := range map[int]int64{0: 20, 1: 30, 2: 10, 3: 10, 4: 30, 5: 30} {
		if self[id] != w {
			t.Errorf("span %d self time %d, want %d", id, self[id], w)
		}
	}
	outside, total := unaccounted(spans)
	if outside != 20 || total != 100 {
		t.Errorf("unaccounted %d of %d, want 20 of 100", outside, total)
	}
}

// tinySizes keeps a smoke run to a few seconds: a small forest, short
// columns and small tables, with enough requests for a p95.
func tinySizes() sizes {
	return sizes{
		trainColumns: 300,
		trees:        8,
		depth:        8,
		setupReps:    2,
		tableColumns: 8,
		minRows:      20,
		maxRows:      80,
		coldPool:     8 * 300,
		warmSet:      96,
		warmTables:   24,
		openRate:     60,
		rowScale:     1,
		maxRequests:  poolMin + 20,
	}
}

func TestColdColumnsAreDistinct(t *testing.T) {
	wl, err := buildCold(5, tinySizes())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[[16]byte]bool{}
	n := 0
	for _, tb := range wl.tables {
		cols, err := tb.columns()
		if err != nil {
			t.Fatal(err)
		}
		for i := range cols {
			h := serve.ColumnHash(&cols[i])
			if seen[h] {
				t.Fatalf("column %q repeats an earlier column's content", cols[i].Name)
			}
			seen[h] = true
			n++
		}
	}
	if n != tinySizes().coldPool {
		t.Errorf("%d cold columns, want %d", n, tinySizes().coldPool)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, name := range []string{"cold", "warm", "tables-open"} {
		a, err := buildWorkload(name, 9, tinySizes(), 4)
		if err != nil {
			t.Fatal(err)
		}
		b, err := buildWorkload(name, 9, tinySizes(), 4)
		if err != nil {
			t.Fatal(err)
		}
		c, err := buildWorkload(name, 10, tinySizes(), 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.tables) != len(b.tables) || !bytes.Equal(a.tables[0].body, b.tables[0].body) {
			t.Errorf("%s: seed 9 gave different inputs twice", name)
		}
		if bytes.Equal(a.tables[0].body, c.tables[0].body) {
			t.Errorf("%s: seeds 9 and 10 gave the same first table", name)
		}
	}
}

// TestSmoke runs every workload end to end at a tiny size, untraced and
// traced, and checks the result line. The closed loops end after
// maxRequests, well before their 30 s; the open loop's schedule is 240
// requests over 4 s.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a fleet")
	}
	for _, c := range []struct {
		workload string
		seconds  string
		trace    string
		metrics  int
	}{
		{"cold", "30", "0", 9},
		{"warm", "30", "0", 9},
		{"tables-open", "4", "0", 9},
		{"warm", "30", "1", 27},
	} {
		t.Run(c.workload+"/trace"+c.trace, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			args := []string{"--workload", c.workload, "--seed", "3", "--seconds", c.seconds, "--trace", c.trace, "--out", t.TempDir()}
			if code := run(context.Background(), args, tinySizes(), &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d: %s", code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var line struct {
				Correct   bool                               `json:"correct"`
				Attempted int                                `json:"attempted"`
				Failed    int                                `json:"failed"`
				Metrics   map[string]struct{ Value float64 } `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatalf("last line is not the result: %v\n%s", err, stdout.String())
			}
			if !line.Correct || line.Failed != 0 || line.Attempted == 0 {
				t.Errorf("correct %v, attempted %d, failed %d:\n%s", line.Correct, line.Attempted, line.Failed, stdout.String())
			}
			if len(line.Metrics) != c.metrics {
				t.Errorf("%d metrics, want %d", len(line.Metrics), c.metrics)
			}
		})
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "cold", "--trace", "2"},
		{"--workload", "lukewarm", "--seconds", "1"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), args, tinySizes(), &stdout, &stderr); code == 0 {
			t.Errorf("%v: exit 0", args)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed %q", args, stdout.String())
		}
	}
}
