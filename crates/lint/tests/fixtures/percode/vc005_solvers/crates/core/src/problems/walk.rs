//! Fixture: a hashed collection in a solver's test code.
#[cfg(test)]
mod tests {
    use std::collections::HashSet;
}
