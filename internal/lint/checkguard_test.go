package lint_test

import (
	"testing"

	"cbws/internal/lint"
	"cbws/internal/lint/linttest"
)

func TestCheckGuard(t *testing.T) {
	linttest.Run(t, lint.CheckGuard, "testdata/src/checkguard")
}
