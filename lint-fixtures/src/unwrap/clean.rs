// Fixture: every unwrap shape the rule tolerates: typed fallbacks, test
// code, and a reasoned expectation.
use std::fmt::Write as _;

pub fn parse_pair(s: &str) -> Option<(u64, u64)> {
    let (a, b) = s.split_once(',')?;
    let a = a.parse::<u64>().ok()?;
    let b = b.parse::<u64>().unwrap_or(0);
    let mut text = String::new();
    #[expect(clippy::unwrap_used, reason = "write!-into-String is infallible")]
    write!(text, "{a},{b}").unwrap();
    Some((a, b + text.len() as u64))
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_ok_in_tests() {
        assert_eq!(super::parse_pair("1,2").unwrap(), (1, 5));
    }
}
