//! Out-of-line module fixture: `checks` is declared test-only, so its file
//! is test code; `helper` is production code and must still be linted.

mod helper;

#[cfg(test)]
mod checks;
