package foldorder_test

import (
	"testing"

	"asiccloud/internal/analysis/atest"
	"asiccloud/internal/analysis/foldorder"
)

func TestFoldorder(t *testing.T) {
	atest.Run(t, foldorder.Analyzer, "foldorder", atest.Config{})
}

// TestSortHelpers covers helpers that sort on the caller's behalf.
func TestSortHelpers(t *testing.T) {
	atest.Run(t, foldorder.Analyzer, "sorthelper", atest.Config{})
}
