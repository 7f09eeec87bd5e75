package main

import (
	"strings"
	"testing"
)

func TestReportAllRowsPass(t *testing.T) {
	var out strings.Builder
	code := run([]string{"-depth", "3"}, &out)
	if code != 0 {
		t.Fatalf("exit = %d\n%s", code, out.String())
	}
	s := out.String()
	for _, id := range []string{"E1", "E2", "E2b", "E2c", "E3", "E3b", "E4", "E4b", "E5", "E6", "E7", "E9"} {
		if !strings.Contains(s, id+"   ok") && !strings.Contains(s, id+"  ok") {
			t.Errorf("row %s not ok:\n%s", id, s)
		}
	}
	if !strings.Contains(s, "0 experiment row(s) failed") {
		t.Errorf("summary missing:\n%s", s)
	}
}

func TestVerboseDetails(t *testing.T) {
	var out strings.Builder
	if code := run([]string{"-depth", "3", "-v"}, &out); code != 0 {
		t.Fatalf("exit = %d", code)
	}
	for _, want := range []string{
		"excluded by the assumption",
		"dropping axiom 5 reports exactly",
		"abstract [B C D]",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("verbose output missing %q", want)
		}
	}
}

// TestBadFlag: every usage error exits 2 before any experiment runs,
// including a depth that would verify nothing and a stray argument.
func TestBadFlag(t *testing.T) {
	for _, args := range [][]string{
		{"-nope"},
		{"-depth", "-1"},
		{"-depth", "0"},
		{"foo"},
		{"-bench-out", "x"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			var out strings.Builder
			if code := run(args, &out); code != 2 {
				t.Errorf("exit = %d, want 2\n%s", code, out.String())
			}
		})
	}
}
