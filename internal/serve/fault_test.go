package serve

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"bipie/internal/bitpack"
	"bipie/internal/encoding"
	"bipie/internal/obs"
	"bipie/internal/table"
)

// A scan that panics answers 500 and journals the panic with its stack;
// the reply carries one line, the error log all of it, the server stays up, the next query on a
// sound table answers 200, and nothing is left in flight.
func TestScanPanicAnswers500(t *testing.T) {
	bad, good := eventsTable(t, 20000), eventsTable(t, 20000)
	// Cut the bytes column of the first segment to 64 values while the
	// segment still claims all its rows: its decode reads past the end.
	col, err := bad.Segments()[0].IntCol("bytes")
	if err != nil {
		t.Fatal(err)
	}
	bp, ok := col.(*encoding.BitPackColumn)
	if !ok {
		t.Fatalf("bytes is %v, not bit-packed", col.Kind())
	}
	vals := make([]uint64, 64)
	for i := range vals {
		vals[i] = bp.Packed().Get(i)
	}
	short, err := bitpack.Pack(vals, bp.Width())
	if err != nil {
		t.Fatal(err)
	}
	*bp.Packed() = *short

	var logBuf bytes.Buffer
	srv := New(map[string]*table.Table{"events": bad, "sound": good}, Config{
		Registry:     obs.NewRegistry(),
		SlowQueryLog: slog.New(slog.NewJSONHandler(&logBuf, nil)),
	})
	h := srv.Handler()

	w := postQuery(t, h, QueryRequest{Query: "SELECT country, sum(bytes) FROM events GROUP BY country"})
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("corrupted scan: status %d: %s", w.Code, w.Body.String())
	}
	var reply ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &reply); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(reply.Error, "engine: internal error: ") || !strings.Contains(reply.Error, "panic: bitpack: ") || strings.Contains(reply.Error, "goroutine ") {
		t.Fatalf("reply error %q: want the panic in one line, no stack", reply.Error)
	}

	jrec := httptest.NewRecorder()
	h.ServeHTTP(jrec, httptest.NewRequest(http.MethodGet, "/debug/requests?id="+reply.RequestID, nil))
	var span struct {
		Status int    `json:"status"`
		Error  string `json:"error"`
	}
	if err := json.Unmarshal(jrec.Body.Bytes(), &span); err != nil {
		t.Fatalf("journal: %v: %s", err, jrec.Body.String())
	}
	if span.Status != http.StatusInternalServerError || !strings.Contains(span.Error, "panic: bitpack: ") || !strings.Contains(span.Error, "goroutine ") {
		t.Fatalf("journal entry %+v: want status 500 with the panic and its stack", span)
	}

	if log := logBuf.String(); !strings.Contains(log, `"msg":"query error"`) || !strings.Contains(log, "goroutine ") {
		t.Fatalf("error log %q: want the panic and its stack", log)
	}

	if w := postQuery(t, h, QueryRequest{Query: "SELECT country, sum(bytes) FROM sound GROUP BY country"}); w.Code != http.StatusOK {
		t.Fatalf("sound table after a panic: status %d: %s", w.Code, w.Body.String())
	}
	if n := srv.InFlight(); n != 0 {
		t.Fatalf("%d requests still in flight", n)
	}
}
