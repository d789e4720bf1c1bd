package main

import (
	"strings"
	"testing"
)

func TestRunRejectsBadInput(t *testing.T) {
	var out, errw strings.Builder
	for _, args := range [][]string{
		{"-badflag"},
		{"extra-arg"},
	} {
		if err := run(args, &out, &errw); err == nil {
			t.Errorf("run(%v) accepted", args)
		}
	}
}
