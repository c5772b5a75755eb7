package main

import "testing"

func TestOnly(t *testing.T) {
	seam()
	if testOnly() != 4 {
		t.Fatal("testOnly")
	}
}
