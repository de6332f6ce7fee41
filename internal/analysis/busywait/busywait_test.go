package busywait_test

import (
	"testing"

	"newtos/internal/analysis/analysistest"
	"newtos/internal/analysis/busywait"
)

func TestBusywait(t *testing.T) {
	analysistest.Run(t, "testdata", busywait.Analyzer, "a")
}
