// Fixture: silently-truncating `as` casts — duration narrowing, a
// declared-width shrink, and a `.len()` narrowing.
pub fn wall_ms(d: std::time::Duration) -> u32 {
    d.as_millis() as u32
}

pub fn shrink(n: u64) -> u32 {
    n as u32
}

pub fn len_tag(v: &[u8]) -> u16 {
    v.len() as u16
}
