//! Figure output: fixed-width tables written to a [`Report`], which echoes
//! them to stdout (`gd-bench run`) or collects them for a snapshot
//! (`gd-bench regen`).

use std::fmt;

/// Appends one formatted line to a [`Report`]: `outln!(report, "x={x}")`.
#[macro_export]
macro_rules! outln {
    ($out:expr) => {
        $out.line(format_args!(""))
    };
    ($out:expr, $($arg:tt)*) => {
        $out.line(format_args!($($arg)*))
    };
}

/// Where a figure's text goes.
#[derive(Debug)]
pub struct Report {
    /// `None` echoes every line to stdout as it is written; `Some`
    /// collects the text instead.
    buf: Option<String>,
}

impl Report {
    /// A report that prints each line as it is written.
    #[must_use]
    pub fn echo() -> Self {
        Report { buf: None }
    }

    /// A report that collects its text (see [`Report::into_text`]).
    #[must_use]
    pub fn capture() -> Self {
        Report {
            buf: Some(String::new()),
        }
    }

    /// The collected text (empty for an echoing report).
    #[must_use]
    pub fn into_text(self) -> String {
        self.buf.unwrap_or_default()
    }

    /// Writes `s` verbatim.
    pub fn text(&mut self, s: &str) {
        match &mut self.buf {
            Some(buf) => buf.push_str(s),
            None => print!("{s}"),
        }
    }

    /// Writes one line (use through [`outln!`]).
    pub fn line(&mut self, args: fmt::Arguments<'_>) {
        match &mut self.buf {
            Some(buf) => {
                fmt::Write::write_fmt(buf, args).expect("writing to a String cannot fail");
                buf.push('\n');
            }
            None => println!("{args}"),
        }
    }

    /// Writes a table title, a header row and a rule.
    pub fn header(&mut self, title: &str, cols: &[&str], widths: &[usize]) {
        outln!(self, "\n=== {title} ===");
        let line = cells(cols, widths);
        outln!(self, "{line}");
        outln!(self, "{}", "-".repeat(line.len().min(120)));
    }

    /// Writes one cell-aligned row.
    pub fn row(&mut self, cells_: &[String], widths: &[usize]) {
        let line = cells(cells_, widths);
        outln!(self, "{line}");
    }
}

fn cells<S: fmt::Display>(cells: &[S], widths: &[usize]) -> String {
    let mut line = String::new();
    for (c, w) in cells.iter().zip(widths) {
        line.push_str(&format!("{c:>w$}  ", w = w));
    }
    line
}

/// Percent formatting helper.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Two-decimal float formatting helper.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.365), "36.5%");
        assert_eq!(f2(1.239), "1.24");
    }

    #[test]
    fn captured_tables_keep_their_layout() {
        let mut r = Report::capture();
        r.header("T", &["a", "bb"], &[3, 4]);
        r.row(&["x".into(), "yz".into()], &[3, 4]);
        outln!(r, "n={}", 2);
        r.text("raw\n");
        assert_eq!(
            r.into_text(),
            "\n=== T ===\n  a    bb  \n-----------\n  x    yz  \nn=2\nraw\n"
        );
    }
}
