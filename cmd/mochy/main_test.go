package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestLoadInput(t *testing.T) {
	if _, err := loadInput("", ""); err == nil {
		t.Fatal("missing input should error")
	}
	if _, err := loadInput("x", "y"); err == nil {
		t.Fatal("both inputs should error")
	}
	g, err := loadInput("", "email-Enron")
	if err != nil || g.NumEdges() == 0 {
		t.Fatalf("dataset input: %v", err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "g.hg")
	if err := os.WriteFile(path, []byte("0 1 2\n1 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err = loadInput(path, "")
	if err != nil || g.NumEdges() != 2 {
		t.Fatalf("file input: %v (%d edges)", err, g.NumEdges())
	}
	if _, err := loadInput(filepath.Join(dir, "missing.hg"), ""); err == nil {
		t.Fatal("missing file should error")
	}
}

func TestSubcommandsRun(t *testing.T) {
	// Exercise the subcommand entry points end to end on a tiny dataset.
	if err := runStats([]string{"-dataset", "email-Enron"}); err != nil {
		t.Fatalf("stats: %v", err)
	}
	if err := runCount([]string{"-dataset", "email-Enron", "-algorithm", "a+", "-samples", "200"}); err != nil {
		t.Fatalf("count a+: %v", err)
	}
	if err := runCount([]string{"-dataset", "email-Enron", "-algorithm", "a", "-samples", "50"}); err != nil {
		t.Fatalf("count a: %v", err)
	}
	if err := runEnumerate([]string{"-dataset", "email-Enron", "-limit", "5"}); err != nil {
		t.Fatalf("enumerate: %v", err)
	}
	if err := runMotifs(); err != nil {
		t.Fatalf("motifs: %v", err)
	}
	if err := runCount([]string{"-dataset", "email-Enron", "-algorithm", "bogus"}); err == nil {
		t.Fatal("bogus algorithm should error")
	}
}

func TestExtensionSubcommandsRun(t *testing.T) {
	if err := runRank([]string{"-dataset", "email-Enron", "-top", "3"}); err != nil {
		t.Fatalf("rank: %v", err)
	}
	if err := runRank([]string{"-dataset", "email-Enron", "-weights", "overlap", "-top", "2"}); err != nil {
		t.Fatalf("rank overlap: %v", err)
	}
	if err := runRank([]string{"-dataset", "email-Enron", "-weights", "bogus"}); err == nil {
		t.Fatal("rank accepted unknown weights")
	}
	if err := runCluster([]string{"-dataset", "contact-high", "-show", "2"}); err != nil {
		t.Fatalf("cluster: %v", err)
	}
	if err := runStream([]string{"-dataset", "email-Enron", "-reservoir", "300", "-compare"}); err != nil {
		t.Fatalf("stream: %v", err)
	}
}

func TestWindowSubcommand(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "timed.hg")
	data := "0 1 2 t=0\n1 2 3 t=1\n2 3 4 t=2\n0 4 t=3\n"
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runWindow([]string{"-in", path, "-width", "2", "-stride", "1"}); err != nil {
		t.Fatalf("window: %v", err)
	}
	if err := runWindow([]string{}); err == nil {
		t.Fatal("window without -in accepted")
	}
	// Untimed file must be rejected.
	untimed := filepath.Join(dir, "untimed.hg")
	if err := os.WriteFile(untimed, []byte("0 1\n1 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runWindow([]string{"-in", untimed}); err == nil {
		t.Fatal("untimed file accepted")
	}
	// 4,097 windows at stride 1 pass the sweep's cap and must be refused. A
	// regression prints them all rather than running out of memory.
	wide := filepath.Join(dir, "wide.hg")
	if err := os.WriteFile(wide, []byte("0 1 t=0\n1 2 t=4096\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runWindow([]string{"-in", wide, "-width", "1", "-stride", "1"}); err == nil {
		t.Fatal("a sweep of 4,097 windows accepted")
	}
}

func TestAnomalySubcommand(t *testing.T) {
	if err := runAnomaly([]string{"-dataset", "contact-high", "-top", "3"}); err != nil {
		t.Fatalf("anomaly: %v", err)
	}
	if err := runAnomaly([]string{}); err == nil {
		t.Fatal("anomaly without input accepted")
	}
}
