def pytest_collection_modifyitems(items):
    """Run the collected tests last to first (``-p reverse_order``)."""
    items.reverse()
