//! The Prometheus text exposition writer behind both `/metrics` bodies.
//!
//! A body is a sequence of families: `# HELP` and `# TYPE` once, then the
//! family's samples. [`PromText::family`] opens one and
//! [`PromText::sample`] adds a series to it, so a sample cannot be
//! written without its metadata or under another family's name.

use std::fmt::{Display, Write as _};

/// An exposition body under construction.
pub(crate) struct PromText {
    out: String,
    family: &'static str,
}

impl PromText {
    pub(crate) fn new() -> Self {
        PromText {
            out: String::with_capacity(2048),
            family: "",
        }
    }

    /// Opens the family `name` of `kind` (`counter` or `gauge`).
    pub(crate) fn family(&mut self, name: &'static str, kind: &str, help: &str) {
        self.family = name;
        let _ = writeln!(self.out, "# HELP {name} {help}\n# TYPE {name} {kind}");
    }

    /// Adds one series of the open family: `name{k="v",...} value`, or
    /// `name value` without labels. Label values are embedded verbatim;
    /// callers pass only names validated to `[A-Za-z0-9._-]` and numbers.
    pub(crate) fn sample(&mut self, labels: &[(&str, &dyn Display)], value: u64) {
        self.out.push_str(self.family);
        for (i, (key, val)) in labels.iter().enumerate() {
            let open = if i == 0 { '{' } else { ',' };
            let _ = write!(self.out, "{open}{key}=\"{val}\"");
        }
        if !labels.is_empty() {
            self.out.push('}');
        }
        let _ = writeln!(self.out, " {value}");
    }

    /// A family of one unlabelled series.
    pub(crate) fn single(&mut self, name: &'static str, kind: &str, help: &str, value: u64) {
        self.family(name, kind, help);
        self.sample(&[], value);
    }

    pub(crate) fn finish(self) -> String {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_carry_help_type_and_labelled_samples() {
        let mut m = PromText::new();
        m.family("x_total", "counter", "Things counted.");
        m.sample(&[("outcome", &"warm")], 3);
        m.sample(&[("outcome", &"throttled"), ("tenant", &"acme")], 1);
        m.single("x_open", "gauge", "Things open.", 7);
        assert_eq!(
            m.finish(),
            "# HELP x_total Things counted.\n\
             # TYPE x_total counter\n\
             x_total{outcome=\"warm\"} 3\n\
             x_total{outcome=\"throttled\",tenant=\"acme\"} 1\n\
             # HELP x_open Things open.\n\
             # TYPE x_open gauge\n\
             x_open 7\n"
        );
    }
}
