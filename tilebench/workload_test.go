package main

import (
	"bytes"
	"strings"
	"testing"
)

// testSources reads the repository's inline kernel sources.
func testSources(t *testing.T) []string {
	t.Helper()
	src, err := loadSources("..")
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func stream(w workload, seed uint64, src []string, n int) []job {
	g := w.gen(seed, src)
	out := make([]job, n)
	for i := range out {
		out[i] = g.next(i)
	}
	return out
}

func TestStreamsRepeatPerSeed(t *testing.T) {
	src := testSources(t)
	for _, w := range workloads {
		a, b := stream(w, 5, src, 200), stream(w, 5, src, 200)
		c := stream(w, 6, src, 200)
		differ := false
		for i := range a {
			if !bytes.Equal(a[i].body, b[i].body) || a[i].key != b[i].key {
				t.Fatalf("%s: job %d differs between two streams of seed 5", w.name, i)
			}
			differ = differ || !bytes.Equal(a[i].body, c[i].body)
		}
		if !differ {
			t.Errorf("%s: seeds 5 and 6 generate the same requests", w.name)
		}
	}
}

func TestSearchHeavyMix(t *testing.T) {
	w, _ := findWorkload("search-heavy")
	jobs := stream(w, 1, nil, 12*40)
	seen := map[string]bool{}
	perKernel := map[string]int{}
	retunes, orders := 0, 0
	type ks struct {
		k string
		s uint64
	}
	seeds := map[ks]bool{}
	for _, j := range jobs {
		if seen[string(j.body)] {
			t.Fatalf("request repeated: %s", j.body)
		}
		seen[string(j.body)] = true
		perKernel[j.req.Kernel]++
		if seeds[ks{j.req.Kernel, j.req.Seed}] {
			retunes++
		}
		seeds[ks{j.req.Kernel, j.req.Seed}] = true
		if j.req.Mode == "order" {
			orders++
		}
	}
	for _, k := range heavyKernels {
		if perKernel[k] != 40 {
			t.Errorf("kernel %s drawn %d times in 40 blocks", k, perKernel[k])
		}
	}
	if frac := float64(retunes) / float64(len(jobs)); frac < 0.15 || frac > 0.3 {
		t.Errorf("re-tune share %.2f, want about a quarter", frac)
	}
	if frac := float64(orders) / float64(len(jobs)); frac < 0.15 || frac > 0.35 {
		t.Errorf("order-mode share %.2f, want about a quarter", frac)
	}
}

func TestRequestLightDistinct(t *testing.T) {
	src := testSources(t)
	w, _ := findWorkload("request-light")
	seen := map[string]bool{}
	keys := map[string]bool{}
	inline := 0
	for _, j := range stream(w, 1, src, 2000) {
		if seen[string(j.body)] || keys[j.key] || j.key == "" {
			t.Fatalf("request or key repeated: %s %q", j.body, j.key)
		}
		seen[string(j.body)], keys[j.key] = true, true
		if j.req.Source != "" {
			inline++
		}
	}
	if inline == 0 {
		t.Error("no inline-source requests")
	}
}

func TestRepeatHotHalfReplays(t *testing.T) {
	src := testSources(t)
	w, _ := findWorkload("repeat-hot")
	set := w.workingSet(1, src)
	primed := map[string]string{}
	for _, j := range set {
		primed[j.key] = string(j.body)
	}
	replays := 0
	jobs := stream(w, 1, src, 32*50)
	for _, j := range jobs {
		if body, ok := primed[j.key]; ok {
			if body != string(j.body) {
				t.Fatalf("replayed key %s carries another body", j.key)
			}
			replays++
		} else if !strings.HasPrefix(j.key, "fresh-") {
			t.Fatalf("unexpected key %q", j.key)
		}
	}
	if replays != len(jobs)/2 {
		t.Errorf("%d of %d jobs replay a primed key, want half", replays, len(jobs))
	}
}
