package satgen

// ExecThreshold exposes the hand-off threshold to the external tests, which
// lower it to force every program through the SAT guide.
var ExecThreshold = &execThreshold
