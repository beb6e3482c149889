package scenario

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"
)

// catalogNames is the full paper catalog this package must register.
var catalogNames = []string{
	"ablation", "endogenous", "federated-day", "fib-day", "fig1", "fig2",
	"fig3", "fig7", "policy-comparison", "scientific", "table1",
	"var-day", "week-day",
}

func TestCatalogComplete(t *testing.T) {
	have := map[string]bool{}
	for _, name := range Names() {
		have[name] = true
	}
	for _, want := range catalogNames {
		if !have[want] {
			t.Errorf("catalog lacks scenario %q", want)
		}
	}
	// All() mirrors Names() in name order with populated specs.
	all := All()
	if len(all) != len(Names()) {
		t.Fatalf("All() has %d specs, Names() %d", len(all), len(Names()))
	}
	for i, sp := range all {
		if sp.Name != Names()[i] {
			t.Errorf("All()[%d] = %q, want %q", i, sp.Name, Names()[i])
		}
		if sp.Description == "" || sp.Artifact == "" || sp.Run == nil {
			t.Errorf("spec %q is incomplete: %+v", sp.Name, sp)
		}
	}
}

func TestRegisterRejectsBadSpecs(t *testing.T) {
	mustPanic := func(name string, sp Spec) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Register did not panic", name)
			}
		}()
		Register(sp)
	}
	run := func(context.Context, Config) (Result, error) { return nil, nil }
	mustPanic("empty name", Spec{Run: run})
	mustPanic("nil run", Spec{Name: "incomplete"})
	mustPanic("duplicate", Spec{Name: "fib-day", Run: run})
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("bogus"); err == nil || !strings.Contains(err.Error(), "unknown scenario") {
		t.Errorf("Lookup(bogus) = %v, want unknown-scenario error", err)
	}
	if _, err := Run(context.Background(), "bogus"); err == nil {
		t.Error("Run(bogus) succeeded")
	}
}

func TestValidateCatchesBadOptions(t *testing.T) {
	cases := []struct {
		name    string
		scen    string
		opts    []Option
		wantErr string
	}{
		{"unknown option", "fig2", []Option{WithOption("jobz", "10")}, `no option "jobz"`},
		{"option on optionless scenario", "fig3", []Option{WithOption("jobs", "10")}, `no option`},
		{"bad int", "fig2", []Option{WithOption("jobs", "many")}, "does not parse as int"},
		{"bad bool", "scientific", []Option{WithOption("use-wrapper", "maybe")}, "does not parse as bool"},
		{"bad duration", "endogenous", []Option{WithOption("max-walltime", "4 hours")}, "does not parse as duration"},
		{"bad float", "endogenous", []Option{WithOption("utilization", "high")}, "does not parse as float"},
		{"unknown policy", "fib-day", []Option{WithPolicy("bogus")}, "unknown policy"},
		{"unused qps axis", "fig2", []Option{WithQPS(5)}, "does not use the qps axis"},
		{"unused nodes axis", "fig3", []Option{WithNodes(512)}, "does not use the nodes axis"},
		{"unused policy axis", "table1", []Option{WithPolicy("fib")}, "does not use the policy axis"},
		{"zero nodes", "fib-day", []Option{WithNodes(0)}, "nodes must be positive"},
		{"negative nodes", "fib-day", []Option{WithNodes(-3)}, "nodes must be positive"},
		{"zero horizon", "fib-day", []Option{WithHorizon(0)}, "horizon must be positive"},
		{"negative horizon", "federated-day", []Option{WithHorizon(-time.Hour)}, "horizon must be positive"},
		{"negative qps", "fib-day", []Option{WithQPS(-5)}, "qps must be a finite rate"},
		{"NaN qps", "fib-day", []Option{WithQPS(math.NaN())}, "qps must be a finite rate"},
		{"infinite qps", "federated-day", []Option{WithQPS(math.Inf(1))}, "qps must be a finite rate"},
		{"negative duration option", "checkpoint-frontier", []Option{WithOption("checkpoint-interval", "-1s")}, "is negative"},
		{"negative timeout option", "var-day", []Option{WithOption("action-timeout", "-2m")}, "is negative"},
		{"NaN float option", "endogenous", []Option{WithOption("utilization", "NaN")}, "not a finite number"},
		{"infinite float option", "endogenous", []Option{WithOption("utilization", "-Inf")}, "not a finite number"},
		{"negative shards", "fib-day", []Option{WithOption("shards", "-1")}, "shards=\"-1\" must be at least 1"},
		{"zero shards", "federated-day", []Option{WithOption("shards", "0")}, "must be at least 1"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			err := Validate(tc.scen, tc.opts...)
			if err == nil {
				t.Fatalf("Validate(%s) succeeded, want error containing %q", tc.scen, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q lacks %q", err, tc.wantErr)
			}
		})
	}
	if err := Validate("fig2", WithOption("jobs", "100"), WithSeed(3)); err != nil {
		t.Errorf("valid options rejected: %v", err)
	}
	// Zero load and a zero (disabled) duration option stay valid.
	if err := Validate("fib-day", WithQPS(0), WithNodes(1), WithHorizon(time.Minute),
		WithOption("checkpoint-interval", "0"), WithOption("shards", "1")); err != nil {
		t.Errorf("boundary-valid options rejected: %v", err)
	}
}

// TestWeekDayScenario: the week-scale scenario defaults to streaming
// collectors (reported via the metrics-bytes metric), rejects an
// unknown base day, and runs a scaled-down horizon end to end.
func TestWeekDayScenario(t *testing.T) {
	if _, err := Run(context.Background(), "week-day", WithOption("day", "mon")); err == nil ||
		!strings.Contains(err.Error(), "day=fib or day=var") {
		t.Errorf("err = %v, want bad-day error", err)
	}
	res, err := Run(context.Background(), "week-day",
		WithSeed(4), WithNodes(64), WithHorizon(time.Hour), WithQPS(2))
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics()
	if m["metrics-bytes"] <= 0 {
		t.Errorf("streaming run reports metrics-bytes = %v, want > 0", m["metrics-bytes"])
	}
	if m["success-share"] <= 0 {
		t.Errorf("no successful requests: %v", m)
	}
}

// TestPolicyComparisonRejectsUnknownPolicyList: the "policies" raw
// option is a string, so newConfig cannot vet it; the scenario itself
// must turn an unknown name into an error, not a MustNew panic
// mid-sweep.
func TestPolicyComparisonRejectsUnknownPolicyList(t *testing.T) {
	_, err := Run(context.Background(), "policy-comparison",
		WithOption("policies", "fib,bogus"))
	if err == nil || !strings.Contains(err.Error(), "unknown policy") {
		t.Errorf("err = %v, want unknown-policy error", err)
	}
}

// TestScenariosRejectUnknownPolicies: every scenario with a policy
// axis resolves the name through the registry, so an unknown policy
// must error cleanly before the run starts — never a MustNew panic
// mid-sweep.
func TestScenariosRejectUnknownPolicies(t *testing.T) {
	for _, name := range []string{"scientific", "endogenous", "fib-day", "federated-day"} {
		_, err := Run(context.Background(), name, WithPolicy("bogus"))
		if err == nil || !strings.Contains(err.Error(), "unknown policy") {
			t.Errorf("%s: err = %v, want unknown-policy error", name, err)
		}
	}
}

// TestConfigPlumbing registers a capture scenario and checks the
// accessor-with-default contract: unset axes report the defaults the
// scenario passes in, set axes report the caller's values, and raw
// options parse per kind.
func TestConfigPlumbing(t *testing.T) {
	var got Config
	Register(Spec{
		Name: "test-capture", Artifact: "test", Description: "captures its config",
		Options: []OptionDoc{
			{Name: "depth", Kind: KindInt, Default: "7", Help: "test"},
			{Name: "share", Kind: KindFloat, Default: "0.5", Help: "test"},
			{Name: "fast", Kind: KindBool, Default: "false", Help: "test"},
			{Name: "grace", Kind: KindDuration, Default: "3m", Help: "test"},
			{Name: "tag", Kind: KindString, Default: "", Help: "test"},
		},
		Run: func(ctx context.Context, cfg Config) (Result, error) {
			got = cfg
			return NewResult(nil, map[string]float64{"ok": 1}, nil), nil
		},
	})

	// Defaults only.
	if _, err := Run(context.Background(), "test-capture"); err != nil {
		t.Fatal(err)
	}
	if got.Seed() != 1 {
		t.Errorf("default seed %d, want 1", got.Seed())
	}
	if got.Nodes(256) != 256 || got.Horizon(time.Hour) != time.Hour ||
		got.Policy("fib") != "fib" || got.QPS(10) != 10 {
		t.Error("unset axes do not report the scenario defaults")
	}
	if got.Int("depth", 7) != 7 || got.Float("share", 0.5) != 0.5 ||
		got.Bool("fast", false) || got.Duration("grace", 3*time.Minute) != 3*time.Minute ||
		got.String("tag", "") != "" {
		t.Error("unset raw options do not report the defaults")
	}

	// Everything set.
	_, err := Run(context.Background(), "test-capture",
		WithSeed(42), WithNodes(64), WithHorizon(2*time.Hour),
		WithPolicy("adaptive"), WithQPS(0),
		WithOption("depth", "12"), WithOption("share", "0.25"),
		WithOption("fast", "true"), WithOption("grace", "90s"),
		WithOption("tag", "x"))
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed() != 42 || got.Nodes(256) != 64 || got.Horizon(time.Hour) != 2*time.Hour ||
		got.Policy("fib") != "adaptive" || got.QPS(10) != 0 {
		t.Error("set axes do not report the caller's values")
	}
	if got.Int("depth", 7) != 12 || got.Float("share", 0.5) != 0.25 ||
		!got.Bool("fast", false) || got.Duration("grace", 3*time.Minute) != 90*time.Second ||
		got.String("tag", "") != "x" {
		t.Error("set raw options do not report the caller's values")
	}

	// WithQPS(0) must count as set: 0 disables load, it is not "unset".
	if got.QPS(10) != 0 {
		t.Error("QPS(0) was treated as unset")
	}

	// A nil-Axes (custom) scenario accepts every uniform axis.
	if err := Validate("test-capture", WithNodes(64), WithQPS(5)); err != nil {
		t.Errorf("nil-Axes scenario rejected axes: %v", err)
	}

	// A Spec whose accessor kind disagrees with its OptionDoc is a
	// programming error and must fail loudly, not silently discard
	// the user's validated value.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("kind-mismatched accessor did not panic")
			}
		}()
		got.Int("tag", 1) // "tag" is documented KindString and holds "x"
	}()
}

// TestFig2RejectsNonPositiveJobs: an explicit jobs=0 must error, not
// silently run the full 74k-job default.
func TestFig2RejectsNonPositiveJobs(t *testing.T) {
	_, err := Run(context.Background(), "fig2", WithOption("jobs", "0"))
	if err == nil || !strings.Contains(err.Error(), "positive jobs") {
		t.Errorf("err = %v, want positive-jobs error", err)
	}
}

func TestMetricsTable(t *testing.T) {
	rows := MetricsTable(map[string]float64{"b": 2, "a": 1.5, "c": 3})
	if len(rows) != 4 {
		t.Fatalf("%d rows, want header+3", len(rows))
	}
	if rows[0][0] != "metric" || rows[1][0] != "a" || rows[2][0] != "b" || rows[3][0] != "c" {
		t.Errorf("rows not in sorted metric order: %v", rows)
	}
}

// TestResultContract checks NewResult's three views and that Table
// hands out fresh rows.
func TestResultContract(t *testing.T) {
	typed := struct{ X int }{7}
	res := NewResult(typed, map[string]float64{"x": 7}, [][]string{{"h"}, {"v"}})
	if res.Unwrap().(struct{ X int }).X != 7 {
		t.Error("Unwrap lost the typed value")
	}
	if res.Metrics()["x"] != 7 {
		t.Error("Metrics lost the value")
	}
	tab := res.Table()
	tab[0][0] = "mutated"
	if res.Table()[0][0] != "h" {
		t.Error("Table rows are shared with the caller")
	}
}

// TestPreCanceledContext: every catalog scenario must notice an
// already-canceled context and return its error without doing the
// work — the uniform-cancellation half of the Result contract.
func TestPreCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range catalogNames {
		name := name
		t.Run(name, func(t *testing.T) {
			start := time.Now()
			res, err := Run(ctx, name)
			if err == nil {
				t.Fatal("run succeeded under a canceled context")
			}
			if !errors.Is(err, context.Canceled) {
				t.Errorf("error %v does not unwrap to context.Canceled", err)
			}
			var cut *CancelError
			if !errors.As(err, &cut) {
				t.Errorf("error %T is not a *CancelError", err)
			}
			if res != nil {
				t.Errorf("canceled run still returned a result: %v", res)
			}
			if e := time.Since(start); e > 5*time.Second {
				t.Errorf("cancellation took %v, want prompt return", e)
			}
		})
	}
}
