package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
)

// TestAdmissionControlShedsAndRecovers holds a MaxInFlight=2 server's gate
// full: the next /predict is shed with 503 + Retry-After and counted, and
// once one slot is released the next request is served.
func TestAdmissionControlShedsAndRecovers(t *testing.T) {
	srv, hs, _, _, _ := newTestServer(t, Config{MaxInFlight: 2})
	for i := 0; i < 2; i++ {
		if err := srv.front.Enter(); err != nil {
			t.Fatal(err)
		}
	}
	var retryAfter string
	status, _, err := tryPredictHeader(hs.URL, []int{1}, &retryAfter)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusServiceUnavailable || retryAfter != "1" {
		t.Fatalf("full gate: status %d Retry-After %q, want 503 and \"1\"", status, retryAfter)
	}
	snap := srv.Metrics()
	if snap.Admission.Shed != 1 || snap.Admission.MaxInFlight != 2 || snap.Admission.InFlight != 2 {
		t.Fatalf("admission %+v, want 1 shed at 2 of 2 in flight", snap.Admission)
	}

	srv.front.Leave()
	if status, pr, err := tryPredict(hs.URL, []int{1}); err != nil || status != http.StatusOK || len(pr.Classes) != 1 {
		t.Fatalf("after Leave: status %d err %v reply %+v, want 200", status, err, pr)
	}
	srv.front.Leave()
	if snap := srv.Metrics(); snap.Admission.InFlight != 0 || snap.Admission.Shed != 1 {
		t.Fatalf("admission %+v after release, want 0 in flight and 1 shed", snap.Admission)
	}
}

// tryPredictHeader is tryPredict, additionally capturing the Retry-After
// header the overload test asserts on.
func tryPredictHeader(url string, vertices []int, retryAfter *string) (int, PredictResponse, error) {
	body, _ := json.Marshal(PredictRequest{Vertices: vertices})
	resp, err := http.Post(url+"/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, PredictResponse{}, err
	}
	defer resp.Body.Close()
	*retryAfter = resp.Header.Get("Retry-After")
	var pr PredictResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
			return resp.StatusCode, pr, err
		}
	}
	return resp.StatusCode, pr, nil
}
