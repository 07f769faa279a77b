package router

import (
	"bytes"
	"net/http"
	"net/http/httptest"

	"sagnn/internal/serve"
)

// writeJSON answers the fake replicas' requests with the document writer
// the serving tiers use.
var writeJSON = serve.WriteJSON

// postRaw posts body to h's /predict and returns the recorded reply, bytes
// and all.
func postRaw(h http.Handler, body []byte) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(body)))
	return w
}
