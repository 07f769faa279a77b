package router

import "sagnn/internal/serve"

// writeJSON answers the fake replicas' requests with the document writer
// the serving tiers use.
var writeJSON = serve.WriteJSON
