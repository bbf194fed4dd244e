package campaign

// The aggregate record's kind and key, for the external tests that plant
// records where a run would look for its own.
const AggKind = aggKind

var AggKey = aggKey
