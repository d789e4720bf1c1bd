package main

import "testing"

func TestPlanSchemes(t *testing.T) {
	for _, args := range [][]string{
		{"-scheme", "f2tree", "-n", "8"},
		{"-scheme", "f2tree", "-n", "8", "-routes"},
		{"-scheme", "fattree", "-n", "4"}, // no rings: prints and exits
		{"-scheme", "f2leafspine", "-n", "8"},
		{"-scheme", "f2tree-proto", "-n", "4"},
	} {
		if _, err := runOut(append([]string{"plan"}, args...)...); err != nil {
			t.Errorf("plan %v: %v", args, err)
		}
	}
}

func TestPlanRejectsBadInput(t *testing.T) {
	for _, args := range [][]string{
		{"-scheme", "bogus"},
		{"-scheme", "f2tree", "-n", "5"},
		{"-badflag"},
	} {
		if _, err := runOut(append([]string{"plan"}, args...)...); err == nil {
			t.Errorf("plan %v accepted", args)
		}
	}
}
