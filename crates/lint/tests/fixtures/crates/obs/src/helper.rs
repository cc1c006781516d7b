pub fn head(v: &[f64]) -> f64 {
    v[0]
}
