package exp

// Both exposes both to the external tests, which drive it through
// campaign's pool (campaign imports exp).
var Both = both
