#[test]
fn calls() {
    a::used_in_tests();
}
