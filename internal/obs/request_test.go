package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRequestIDRoundTrip(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if a == b {
		t.Fatalf("consecutive IDs collide: %d", a)
	}
	for _, id := range []uint64{a, b} {
		if id >= 1<<53 {
			t.Fatalf("ID %d exceeds 2^53: it would not round-trip through a JSON float64", id)
		}
		got, err := ParseRequestID(FormatRequestID(id))
		if err != nil {
			t.Fatalf("ParseRequestID(%q): %v", FormatRequestID(id), err)
		}
		if got != id {
			t.Fatalf("round-trip %d -> %q -> %d", id, FormatRequestID(id), got)
		}
	}
}

func TestJournalWrapNewestFirst(t *testing.T) {
	j := NewJournal(4)
	for i := 1; i <= 6; i++ {
		j.Record(&RequestSpan{ID: uint64(i), Start: time.Now()})
	}
	if j.Len() != 4 {
		t.Fatalf("Len = %d, want 4 after wrapping a 4-slot ring", j.Len())
	}
	spans := j.Snapshot()
	want := []uint64{6, 5, 4, 3}
	if len(spans) != len(want) {
		t.Fatalf("Snapshot holds %d spans, want %d", len(spans), len(want))
	}
	for i, w := range want {
		if spans[i].ID != w {
			t.Fatalf("Snapshot[%d].ID = %d, want %d (newest first)", i, spans[i].ID, w)
		}
	}
	if _, ok := j.Find(2); ok {
		t.Fatal("Find(2) succeeded; span 2 should have been overwritten")
	}
	if s, ok := j.Find(5); !ok || s.ID != 5 {
		t.Fatalf("Find(5) = (%+v, %v), want the recorded span", s, ok)
	}
}

func TestJournalDefaultSize(t *testing.T) {
	if got := NewJournal(0).Cap(); got != DefaultJournalSize {
		t.Fatalf("NewJournal(0).Cap() = %d, want %d", got, DefaultJournalSize)
	}
}

func TestJournalRecordAllocFree(t *testing.T) {
	j := NewJournal(64)
	span := RequestSpan{ID: 7, SQL: "SELECT count(*) FROM t", Shape: "abc"}
	allocs := testing.AllocsPerRun(100, func() {
		j.Record(&span)
	})
	if allocs != 0 {
		t.Fatalf("Journal.Record allocates %.1f per call, want 0", allocs)
	}
}

// TestJournalConcurrent hammers the ring from concurrent writers while
// readers snapshot and search it; run under -race this is the journal's
// safety proof.
func TestJournalConcurrent(t *testing.T) {
	j := NewJournal(32)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				j.Record(&RequestSpan{ID: NewRequestID(), Start: time.Now(), SQL: "SELECT 1", Status: 200})
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				for _, s := range j.Snapshot() {
					if s.ID == 0 {
						t.Error("snapshot returned a zero-ID span")
						return
					}
				}
				j.Find(12345)
			}
		}()
	}
	wg.Wait()
	if j.Len() != 32 {
		t.Fatalf("Len = %d, want full ring", j.Len())
	}
}

func TestJournalServeHTTP(t *testing.T) {
	j := NewJournal(8)
	j.Record(&RequestSpan{
		ID: 0xabc, Start: time.Now(), SQL: "SELECT 1", Shape: "deadbeef",
		Status: 200, ParseNS: 1e6, QueueNS: 2e6, ExecNS: 3e6, TotalNS: 6e6,
	})

	rec := httptest.NewRecorder()
	j.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/requests", nil))
	if rec.Code != 200 {
		t.Fatalf("journal dump: status %d", rec.Code)
	}
	var all []map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &all); err != nil {
		t.Fatalf("journal dump is not a JSON array: %v", err)
	}
	if len(all) != 1 || all[0]["id"] != "abc" {
		t.Fatalf("journal dump = %v, want one span with id abc", all)
	}

	rec = httptest.NewRecorder()
	j.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/requests?id=abc", nil))
	if rec.Code != 200 {
		t.Fatalf("?id=abc: status %d, body %s", rec.Code, rec.Body)
	}
	var one map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &one); err != nil {
		t.Fatalf("single-span body: %v", err)
	}
	if one["queue_ms"] != 2.0 || one["exec_ms"] != 3.0 {
		t.Fatalf("stage breakdown = %v, want queue_ms 2 exec_ms 3", one)
	}

	rec = httptest.NewRecorder()
	j.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/requests?id=ffffff", nil))
	if rec.Code != 404 {
		t.Fatalf("?id=<absent>: status %d, want 404", rec.Code)
	}

	rec = httptest.NewRecorder()
	j.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/requests?id=zzz", nil))
	if rec.Code != 400 {
		t.Fatalf("?id=<garbage>: status %d, want 400", rec.Code)
	}

	rec = httptest.NewRecorder()
	j.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/requests?format=trace", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "traceEvents") {
		t.Fatalf("?format=trace: status %d, body %.80s", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "queue-wait") {
		t.Fatalf("chrome trace is missing the queue-wait stage: %.200s", rec.Body)
	}

	// ?id= with ?format=trace is one request's stages as a trace.
	j.Record(&RequestSpan{ID: 0xdef, Start: time.Now(), Status: 200, ExecNS: 1e6, TotalNS: 1e6})
	rec = httptest.NewRecorder()
	j.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/requests?id=abc&format=trace", nil))
	var tr struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if rec.Code != 200 {
		t.Fatalf("?id=abc&format=trace: status %d, body %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &tr); err != nil {
		t.Fatalf("?id=abc&format=trace: %v", err)
	}
	var stages []string
	for _, e := range tr.TraceEvents {
		if e.Args["id"] != "abc" {
			t.Fatalf("?id=abc&format=trace carries another request's event: %+v", e)
		}
		stages = append(stages, e.Name)
	}
	if got := strings.Join(stages, " "); got != "parse queue-wait exec" {
		t.Fatalf("?id=abc&format=trace stages = %q, want parse queue-wait exec", got)
	}
}
