package loadgen

import (
	"testing"

	"bipie/internal/sql"
)

// TestMixesParse keeps the canned query mix aligned with the SQL
// frontend: every query must parse.
func TestMixesParse(t *testing.T) {
	for _, q := range TPCHMix("lineitem") {
		if _, err := sql.Parse(q); err != nil {
			t.Errorf("mix query does not parse: %q: %v", q, err)
		}
	}
}
