package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/httpapi"
	"repro/kws"
)

// paperConfig is the base invocation the tests tweak per case.
func paperConfig(keywords ...string) config {
	return config{
		database: "paper",
		scale:    1,
		seed:     1,
		engine:   kws.EnginePaths,
		rank:     kws.RankCloseFirst,
		maxJoins: 3,
		keywords: keywords,
	}
}

// runCapture runs one invocation and returns its stdout and stderr.
func runCapture(t *testing.T, ctx context.Context, cfg config) (string, string, error) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	err := run(ctx, cfg, &stdout, &stderr)
	return stdout.String(), stderr.String(), err
}

func TestRunPaperDatabase(t *testing.T) {
	ctx := context.Background()
	cfg := paperConfig("Smith", "XML")
	cfg.verbose = true
	stdout, _, err := runCapture(t, ctx, cfg)
	if err != nil {
		t.Errorf("run: %v", err)
	}
	if !strings.Contains(stdout, "Smith") {
		t.Errorf("stdout does not print results:\n%s", stdout)
	}

	cfg = paperConfig("Smith", "XML")
	cfg.engine, cfg.rank, cfg.topK = kws.EngineMTJNT, kws.RankERLength, 2
	if _, _, err := runCapture(t, ctx, cfg); err != nil {
		t.Errorf("run mtjnt: %v", err)
	}
}

func TestRunStreaming(t *testing.T) {
	cfg := paperConfig("Smith", "XML")
	cfg.stream, cfg.topK = true, 2
	if _, _, err := runCapture(t, context.Background(), cfg); err != nil {
		t.Errorf("run -stream: %v", err)
	}
}

func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := runCapture(t, ctx, paperConfig("Smith", "XML")); err == nil {
		t.Error("cancelled context should surface as an error")
	}
}

func TestRunSyntheticDatabase(t *testing.T) {
	cfg := paperConfig("databases", "Smith")
	cfg.database, cfg.seed, cfg.rank, cfg.topK = "synthetic", 7, kws.RankERLength, 5
	if _, _, err := runCapture(t, context.Background(), cfg); err != nil {
		// The sampled keywords may be absent at tiny scales; only a
		// configuration error is fatal here.
		t.Logf("synthetic run reported: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	ctx := context.Background()
	cfg := paperConfig("x")
	cfg.database = "bogus"
	if _, _, err := runCapture(t, ctx, cfg); err == nil {
		t.Error("unknown database should fail")
	}
	cfg = paperConfig("x")
	cfg.engine = "bogus"
	if _, _, err := runCapture(t, ctx, cfg); err == nil {
		t.Error("unknown engine should fail")
	}
	if _, _, err := runCapture(t, ctx, paperConfig("doesnotmatch", "XML")); err == nil {
		t.Error("unmatched keyword should surface as an error")
	}
}

// TestZeroAnswersHint: a query whose keywords all match but whose budget is
// too tight must tell the user to widen it, on stderr, without failing.
func TestZeroAnswersHint(t *testing.T) {
	cfg := paperConfig("Alice", "XML")
	cfg.maxJoins = 1
	stdout, stderr, err := runCapture(t, context.Background(), cfg)
	if err != nil {
		t.Fatalf("zero-answer run failed: %v", err)
	}
	if !strings.Contains(stdout, "no connections found") {
		t.Errorf("stdout missing the no-connections line:\n%s", stdout)
	}
	if want := "no answers (try -maxjoins 2)"; !strings.Contains(stderr, want) {
		t.Errorf("stderr = %q, want it to contain %q", stderr, want)
	}

	// The hint also fires in streaming mode.
	cfg.stream = true
	_, stderr, err = runCapture(t, context.Background(), cfg)
	if err != nil {
		t.Fatalf("zero-answer stream run failed: %v", err)
	}
	if !strings.Contains(stderr, "no answers (try -maxjoins 2)") {
		t.Errorf("stream stderr = %q, want the maxjoins hint", stderr)
	}

	// A query with answers must not hint.
	_, stderr, err = runCapture(t, context.Background(), paperConfig("Smith", "XML"))
	if err != nil {
		t.Fatal(err)
	}
	if stderr != "" {
		t.Errorf("stderr = %q, want empty on a query with answers", stderr)
	}
}

// newRemote starts an in-process kwsd-equivalent server on the paper
// database and returns its base URL.
func newRemote(t *testing.T) string {
	t.Helper()
	engine, err := kws.New(kws.PaperExample(), kws.WithLabeler(kws.PaperLabeler()))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(httpapi.New(engine, httpapi.Options{}).Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// resultLines returns the ranked result block of a ksearch run: everything
// after the two header lines, minus the remote-only generation trailer.
func resultLines(out string) string {
	_, body, _ := strings.Cut(out, "\n\n")
	if i := strings.Index(body, "\n(generation "); i >= 0 {
		body = body[:i]
	}
	return body
}

// TestRunRemote: -remote speaks the kwsd wire format and prints the same
// result lines a local run would, for default and non-default query flags —
// a flag the wire mapping dropped would change the remote block.
func TestRunRemote(t *testing.T) {
	url := newRemote(t)
	ctx := context.Background()

	cases := map[string]func(*config){
		"defaults":        func(*config) {},
		"topk+ranking":    func(c *config) { c.topK, c.rank = 3, kws.RankRDBLength },
		"engine+maxjoins": func(c *config) { c.engine, c.maxJoins, c.verbose = kws.EngineBANKS, 4, true },
	}
	for name, tweak := range cases {
		cfg := paperConfig("Smith", "XML")
		tweak(&cfg)
		local, _, err := runCapture(t, ctx, cfg)
		if err != nil {
			t.Fatalf("%s: local run: %v", name, err)
		}
		cfg.remote = url
		remote, _, err := runCapture(t, ctx, cfg)
		if err != nil {
			t.Fatalf("%s: remote run: %v", name, err)
		}
		if got, want := resultLines(remote), resultLines(local); got != want || want == "" {
			t.Errorf("%s: remote results differ from local\nlocal:\n%s\nremote:\n%s", name, want, got)
		}
		if !strings.Contains(remote, "(generation 0, cached: false)") {
			t.Errorf("%s: remote output missing generation line:\n%s", name, remote)
		}
	}

	// A repeated identical query is served from the server's cache.
	cfg := paperConfig("Smith", "XML")
	cfg.remote = url
	remote2, _, err := runCapture(t, ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(remote2, "cached: true") {
		t.Errorf("repeated remote query not reported cached:\n%s", remote2)
	}
}

func TestRunRemoteStreamAndHint(t *testing.T) {
	url := newRemote(t)
	ctx := context.Background()

	cfg := paperConfig("Smith", "XML")
	cfg.remote, cfg.stream = url, true
	stdout, _, err := runCapture(t, ctx, cfg)
	if err != nil {
		t.Fatalf("remote stream: %v", err)
	}
	if !strings.Contains(stdout, "Smith") {
		t.Errorf("remote stream printed no results:\n%s", stdout)
	}

	cfg = paperConfig("Alice", "XML")
	cfg.remote, cfg.maxJoins = url, 1
	_, stderr, err := runCapture(t, ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr, "no answers (try -maxjoins 2)") {
		t.Errorf("remote zero-answer stderr = %q, want the maxjoins hint", stderr)
	}
}

func TestRunRemoteErrors(t *testing.T) {
	url := newRemote(t)
	cfg := paperConfig("doesnotmatch", "XML")
	cfg.remote = url
	if _, _, err := runCapture(t, context.Background(), cfg); err == nil {
		t.Error("remote unmatched keyword should surface as an error")
	}
	cfg = paperConfig("Smith")
	cfg.remote = "http://127.0.0.1:1" // nothing listens here
	if _, _, err := runCapture(t, context.Background(), cfg); err == nil {
		t.Error("unreachable remote should surface as an error")
	}
}
