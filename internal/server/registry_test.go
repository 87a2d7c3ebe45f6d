package server

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"mochy/internal/hypergraph"
)

func testGraph(t testing.TB, text string) *hypergraph.Hypergraph {
	t.Helper()
	g, err := hypergraph.ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRegistryLoadGetDelete(t *testing.T) {
	r := NewRegistry()
	g := testGraph(t, "0 1 2\n0 1 3\n2 3\n")
	e, replaced := r.Load("tri", g)
	if replaced {
		t.Fatal("first Load reported replaced")
	}
	if e.Stats.NumEdges != 3 {
		t.Fatalf("Stats.NumEdges = %d, want 3", e.Stats.NumEdges)
	}
	got, ok := r.Get("tri")
	if !ok || got != e {
		t.Fatal("Get did not return the loaded entry")
	}
	if _, ok := r.Get("nope"); ok {
		t.Fatal("Get returned an unregistered name")
	}
	if !r.Delete("tri") {
		t.Fatal("Delete of present name returned false")
	}
	if r.Delete("tri") {
		t.Fatal("Delete of absent name returned true")
	}
}

func TestRegistryReplaceBumpsGeneration(t *testing.T) {
	r := NewRegistry()
	g := testGraph(t, "0 1 2\n")
	e1, _ := r.Load("g", g)
	e2, replaced := r.Load("g", g)
	if !replaced {
		t.Fatal("re-Load did not report replaced")
	}
	if e2.Gen <= e1.Gen {
		t.Fatalf("generation did not advance: %d then %d", e1.Gen, e2.Gen)
	}
	// Cache keys embed the generation, so a replaced graph can never be
	// served a stale cached result.
	k1 := exactKey(e1)
	k2 := exactKey(e2)
	if k1 == k2 {
		t.Fatalf("cache keys collide across generations: %q", k1)
	}
}

func TestRegistryNames(t *testing.T) {
	r := NewRegistry()
	g := testGraph(t, "0 1 2\n")
	for _, n := range []string{"c", "a", "b"} {
		r.Load(n, g)
	}
	if got, want := r.Names(), []string{"a", "b", "c"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Names = %v, want %v", got, want)
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	g := testGraph(t, "0 1 2\n0 1 3\n2 3\n")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				name := fmt.Sprintf("g%d", i%10)
				e, _ := r.Load(name, g)
				if e.Projection().NumWedges() == 0 {
					t.Error("projection of loaded graph has no wedges")
				}
				r.Get(name)
				r.Names()
				if i%7 == 0 {
					r.Delete(name)
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestEntryProjectionBuiltOnce(t *testing.T) {
	r := NewRegistry()
	g := testGraph(t, "0 1 2\n0 1 3\n2 3\n")
	e, _ := r.Load("g", g)
	var wg sync.WaitGroup
	projections := make([]any, 8)
	for i := range projections {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			projections[i] = e.Projection()
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(projections); i++ {
		if projections[i] != projections[0] {
			t.Fatal("concurrent Projection calls returned different objects")
		}
	}
}
