package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestHealthServing verifies the serving shape of the zero value: 200 plus
// a JSON body the gateway watcher can parse.
func TestHealthServing(t *testing.T) {
	h := new(Health)
	srv := httptest.NewServer(h)
	defer srv.Close()

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("code = %d, want 200", resp.StatusCode)
	}
	st, err := ParseHealth(body)
	if err != nil {
		t.Fatalf("ParseHealth(%q): %v", body, err)
	}
	if st.State != HealthOK {
		t.Fatalf("status = %+v, want state ok", st)
	}

	// Drain flips the code to 503 and the state to draining.
	h.SetDraining()
	resp, err = http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining code = %d, want 503", resp.StatusCode)
	}
	st, err = ParseHealth(body)
	if err != nil {
		t.Fatalf("ParseHealth(%q): %v", body, err)
	}
	if st.State != HealthDraining {
		t.Fatalf("draining status = %+v, want state draining", st)
	}
}

// TestParseHealthRejects pins the failure modes the watcher must treat as
// probe errors, not states.
func TestParseHealthRejects(t *testing.T) {
	for _, bad := range []string{"", "ok", `{"state":"limping"}`, `{"state":5}`} {
		if _, err := ParseHealth([]byte(bad)); err == nil {
			t.Errorf("ParseHealth(%q) succeeded, want error", bad)
		}
	}
}
