//! One lookup of a series in a Prometheus text exposition.

/// The value of the series `name` (its name and labels, as exposed) in
/// the exposition `body`, parsed exactly as a `u64`. Panics if no line
/// carries the series with such a value.
pub fn series(body: &str, name: &str) -> u64 {
    body.lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' '))
        .and_then(|value| value.trim().parse().ok())
        .unwrap_or_else(|| panic!("no series {name} with a u64 value in:\n{body}"))
}
